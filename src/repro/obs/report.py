"""Run reports: one renderable summary of everything a run emitted.

A :class:`RunReport` condenses a scheme run into the tables the paper's
evaluation reasons about — latency percentiles by operation, the
normal-vs-degraded split, the RTT-wait/transfer time breakdown, resilience
counters, and per-provider traffic — plus, when tracing was on, a
per-provider activity timeline and a flame summary of where simulated time
went.

Two constructors, one renderer:

- :meth:`RunReport.from_scheme` reads a live scheme (its collector,
  registry, and tracer);
- :meth:`RunReport.from_trace` replays a JSON-lines trace: metric events
  rebuild the registry, root ``op.*`` spans rebuild the
  :class:`~repro.metrics.collector.OpReport` stream.

Because the registry mirrors *every* mutation into the trace and JSON
round-trips floats exactly, the two paths produce byte-identical reports
for the same run — the round-trip guarantee the test suite enforces.

The ``repro report`` CLI subcommand wraps :func:`run_fault_storm_report`
(a traced HyRD run under the canonical fault storm) and can re-render any
saved trace with ``--from-trace``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.metrics.collector import OpReport
from repro.metrics.registry import Histogram, MetricsRegistry
from repro.obs.trace import RecordingTracer, flame_summary

__all__ = ["RunReport", "run_fault_storm_report"]

_TIMELINE_BINS = 10


def render_table(headers, rows, title=None, floatfmt=".3f"):
    """Proxy for :func:`repro.analysis.tables.render_table`.

    Imported lazily: ``repro.analysis``'s package init pulls in the cost
    simulator, which imports the scheme layer — and the scheme layer imports
    ``repro.obs`` for the tracer.  Deferring the import breaks that cycle.
    """
    from repro.analysis.tables import render_table as _render

    return _render(headers, rows, title=title, floatfmt=floatfmt)


@dataclass
class RunReport:
    """Everything needed to render one run's summary.

    ``records`` is the raw trace (list of record dicts) when tracing was on,
    else ``None`` — the timeline and flame sections only render with it.
    """

    scheme: str
    seed: int | None
    reports: list[OpReport]
    registry: MetricsRegistry
    records: list[dict[str, Any]] | None = field(default=None, repr=False)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_scheme(cls, scheme) -> "RunReport":
        """Snapshot a live scheme (any :class:`repro.schemes.base.Scheme`)."""
        records = list(scheme.tracer.records) if scheme.tracer.enabled else None
        return cls(
            scheme=scheme.name,
            seed=scheme.seed,
            reports=list(scheme.collector.reports),
            registry=scheme.registry,
            records=records,
        )

    @classmethod
    def from_trace(cls, records: list[dict[str, Any]]) -> "RunReport":
        """Rebuild a report from trace records (see :func:`repro.obs.read_jsonl`).

        Metric events replay into a fresh registry; root ``op.*`` spans (the
        ones the scheme's op envelope closes, carrying the full OpReport as
        attributes) rebuild the report stream in completion order.
        """
        meta: dict[str, Any] = {}
        registry = MetricsRegistry()
        reports: list[OpReport] = []
        for r in records:
            t = r.get("t")
            if t == "meta":
                meta.update(r["attrs"])
            elif t == "metric":
                registry.apply_event(
                    r["kind"], r["name"], dict(r["labels"]), r["value"]
                )
            elif t == "span" and r["end"] < r["start"]:
                raise ValueError(
                    f"span {r['id']} ({r['name']!r}) ends before it starts: "
                    f"start={r['start']}, end={r['end']} — clock misuse or a "
                    "corrupted trace"
                )
            elif (
                t == "span"
                and r["parent"] is None
                and r["name"].startswith("op.")
                and r["name"] != "op.error"
            ):
                a = r["attrs"]
                reports.append(
                    OpReport(
                        op=a["op"],
                        path=a["path"],
                        elapsed=a["elapsed"],
                        bytes_up=a["bytes_up"],
                        bytes_down=a["bytes_down"],
                        providers=tuple(a["providers"]),
                        degraded=a["degraded"],
                        cloud_ops=a["cloud_ops"],
                        rtt_wait=a["rtt_wait"],
                        transfer_time=a["transfer_time"],
                        retries=a["retries"],
                        hedged=a["hedged"],
                        tenant=a.get("tenant"),
                    )
                )
        return cls(
            scheme=str(meta.get("scheme", "?")),
            seed=meta.get("seed"),
            reports=reports,
            registry=registry,
            records=list(records),
        )

    # ----------------------------------------------------------------- render
    def render(self) -> str:
        """The full human-readable report."""
        parts = [self._header()]
        for section in (
            self._latency_section(),
            self._degraded_section(),
            self._time_breakdown_section(),
            self._attribution_section(),
            self._resilience_section(),
            self._provider_section(),
            self._timeline_section(),
            self._flame_section(),
        ):
            if section:
                parts.append(section)
        return "\n\n".join(parts)

    def _header(self) -> str:
        busy = sum(r.elapsed for r in self.reports)
        return (
            f"Run report — scheme={self.scheme} seed={self.seed} "
            f"ops={len(self.reports)} op_time={busy:.3f}s"
        )

    def _op_histograms(self) -> dict[str, Histogram]:
        out: dict[str, Histogram] = {}
        for m in self.registry.all_metrics():
            if isinstance(m, Histogram) and m.name == "op_latency_seconds":
                out[dict(m.labels).get("op", "")] = m
        return out

    def _latency_section(self) -> str:
        hists = self._op_histograms()
        if not hists:
            return ""
        rows = []
        for op in sorted(hists):
            s = hists[op].summary()
            rows.append(
                [op, int(s["count"]), s["mean"], s["p50"], s["p95"], s["p99"], s["max"]]
            )
        return render_table(
            ["Op", "Count", "Mean", "p50", "p95", "p99", "Max"],
            rows,
            title="Latency by op (s; p50/p95/p99 are bucket estimates)",
            floatfmt=".4f",
        )

    def _degraded_section(self) -> str:
        split = self.registry.breakdown("ops_total", "op", "degraded")
        if not split:
            return ""
        ops = sorted({op for op, _ in split})
        rows = []
        for op in ops:
            normal = split.get((op, "false"), 0)
            degraded = split.get((op, "true"), 0)
            total = normal + degraded
            rows.append([op, normal, degraded, degraded / total if total else 0.0])
        total_norm = sum(r[1] for r in rows)
        total_deg = sum(r[2] for r in rows)
        grand = total_norm + total_deg
        rows.append(
            ["(all)", total_norm, total_deg, total_deg / grand if grand else 0.0]
        )
        return render_table(
            ["Op", "Normal", "Degraded", "Degraded frac"],
            rows,
            title="Degraded split (ops that took a reconstruction/fallback path)",
            floatfmt=".3f",
        )

    def _time_breakdown_section(self) -> str:
        if not self.reports:
            return ""
        rtt = sum(r.rtt_wait for r in self.reports)
        transfer = sum(r.transfer_time for r in self.reports)
        total = sum(r.elapsed for r in self.reports)
        return render_table(
            ["RTT wait", "Transfer", "Total"],
            [[rtt, transfer, total]],
            title="Time breakdown (critical-path seconds, summed over ops)",
            floatfmt=".3f",
        )

    def _attribution_section(self) -> str:
        """Phase shares from the critical-path analyzer (traced runs only).

        The one-line summary version of ``repro explain``: each op's window
        decomposed into the fixed phase taxonomy, summed over the run.
        """
        if not self.records:
            return ""
        from repro.obs.attribution import PHASES, attribute_trace

        attr = attribute_trace(self.records)
        if not attr.ops:
            return ""
        totals = attr.totals()
        shares = attr.shares()
        rows = [
            [p, totals[p], f"{shares[p]:.1%}"]
            for p in PHASES
            if totals[p] > 0.0
        ]
        return render_table(
            ["Phase", "Seconds", "Share"],
            rows,
            title="Critical-path attribution (phases tile each op's wall-clock; "
            "see `repro explain`)",
            floatfmt=".3f",
        )

    def _resilience_section(self) -> str:
        counters = self.registry.counters()
        if not counters:
            return ""
        rows = [[name, value] for name, value in sorted(counters.items())]
        return render_table(
            ["Counter", "Value"], rows, title="Resilience counters"
        )

    def _provider_section(self) -> str:
        requests = self.registry.sum_by_label("provider_requests_total", "provider")
        if not requests:
            return ""
        errors = self.registry.sum_by_label("provider_errors_total", "provider")
        up = self.registry.sum_by_label("provider_bytes_up_total", "provider")
        down = self.registry.sum_by_label("provider_bytes_down_total", "provider")
        logged = self.registry.sum_by_label("write_log_entries_total", "provider")
        healed = self.registry.sum_by_label("heal_replayed_total", "provider")
        rows = [
            [
                name,
                requests.get(name, 0),
                errors.get(name, 0),
                up.get(name, 0),
                down.get(name, 0),
                logged.get(name, 0),
                healed.get(name, 0),
            ]
            for name in sorted(requests)
        ]
        return render_table(
            ["Provider", "Requests", "Errors", "Bytes up", "Bytes down",
             "Logged", "Healed"],
            rows,
            title="Per-provider traffic",
        )

    def _timeline_section(self) -> str:
        if not self.records:
            return ""
        spans = [
            r
            for r in self.records
            if r.get("t") == "span" and r["name"] == "request"
        ]
        if not spans:
            return ""
        t0 = min(r["start"] for r in spans)
        t1 = max(r["end"] for r in spans)
        width = max(t1 - t0, 1e-9)
        bins: dict[str, list[int]] = {}
        for r in spans:
            provider = r["attrs"].get("provider", "?")
            idx = min(
                int((r["start"] - t0) / width * _TIMELINE_BINS), _TIMELINE_BINS - 1
            )
            bins.setdefault(provider, [0] * _TIMELINE_BINS)[idx] += 1
        rows = [[name] + counts for name, counts in sorted(bins.items())]
        headers = ["Provider"] + [f"b{i}" for i in range(_TIMELINE_BINS)]
        return render_table(
            headers,
            rows,
            title=(
                f"Request timeline (requests started per bin; "
                f"sim t={t0:.1f}s..{t1:.1f}s, {_TIMELINE_BINS} bins)"
            ),
        )

    def _flame_section(self) -> str:
        if not self.records:
            return ""
        return "Flame summary (simulated seconds by span path)\n" + flame_summary(
            self.records
        )


def run_fault_storm_report(
    seed: int = 0, trace: bool = True, slo=None, sampler=None, observatory=None
) -> tuple[RunReport, "RecordingTracer | None"]:
    """Run :func:`repro.scenarios.fault_storm` and report on it.

    Returns ``(report, tracer)`` — the tracer (or ``None`` when
    ``trace=False``) holds the JSON-lines exportable trace for ``repro report
    --trace-out``.  ``slo``, ``sampler`` and ``observatory`` attach as in
    :func:`~repro.scenarios.fault_storm` (the live feeds behind ``repro
    watch`` and ``repro explain``); none of them perturbs simulated timings.

    Deterministic: the same seed reproduces the identical report and trace.
    """
    # Local import: repro.scenarios builds on the scheme layer, which itself
    # imports repro.obs.
    from repro.scenarios import fault_storm

    scheme, _ = fault_storm(
        seed, trace=trace, slo=slo, sampler=sampler, observatory=observatory
    )
    return RunReport.from_scheme(scheme), scheme.tracer if trace else None
