"""The repository's benchmark: one workload, measured on two clocks.

Runs one workload in fresh child processes (``child.py``) and prints every
metric by name with its unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
of a traced process and the tracing overhead.  The metric names, units and
bounds live in ``BENCHMARK.json``; ``perfbench/README.md`` explains them.

Usage, from the repository root::

    python3 perfbench/run.py --workload ia_replay --seed 1 --seconds 20 --trace 0

The exit code is 0 when every output check passed, 1 when one failed (the
result line still shows ``"correct": false``) and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent

#: untraced children per ``--trace 0`` run
UNTRACED_CHILDREN = 3

#: set-up-only processes started after each untraced child; ``setup_s`` is
#: the median over these and the children
SETUP_PROBES = 3

#: wall-clock budget for all children of one run
RUN_BUDGET_S = 170.0

#: at least this many samples must lie beyond the reported p99
TAIL_SAMPLES = 10

#: probes on each side of a call's last probe that scale its host time
PROBE_SPAN = 8

#: where traced runs write their spans (relative to the repository root)
SPANS_DIR = Path(".perfbench-out")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` values."""
    return max(1, -(-n * pct // 100))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile of a non-empty list."""
    return sorted(values)[rank(len(values), pct) - 1]


def run_child(
    root: Path, args, traced: bool, seconds: float, deadline: float,
    setup_only: bool = False,
) -> dict:
    """Run one child process to completion; returns its parsed report."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--traced", str(int(traced)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        (root / SPANS_DIR).mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"spans-{args.workload}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before all children ran")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} child exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} child printed no report")
    return json.loads(lines[-1])


def host_latencies(child: dict) -> list[float]:
    """A child's per-call host times in reference-host seconds (calib.py).

    Each call is divided by the host's slowness just before it: the mean
    of the probes within ``PROBE_SPAN`` probes of the last one run before
    the call, over ``REF_PROBE_S``.  A slow phase of the host, however
    short, is so taken out of the tail as well as out of the median.
    """
    probes, probe_at = child["probes_s"], child["probe_at"]
    n = len(probes)
    if not n or probe_at[0] != 0:
        raise BenchError("a child timed a call before its first host-speed probe")
    prefix = [0.0]
    for p in probes:
        prefix.append(prefix[-1] + p)
    out = []
    j = 0
    for i, t in enumerate(child["samples_s"]):
        while j + 1 < n and probe_at[j + 1] <= i:
            j += 1
        lo, hi = max(0, j - PROBE_SPAN), min(n, j + PROBE_SPAN + 1)
        out.append(t * (hi - lo) * calib.REF_PROBE_S / (prefix[hi] - prefix[lo]))
    return out


def host_rate(child: dict, latencies: list[float]) -> float:
    """Scheme calls per reference-host second of a child's timed window.

    The window is scaled by the ratio of the child's calls in
    reference-host time (``latencies``) to the same calls in host time.
    """
    if not latencies:
        raise BenchError("a child completed no ops")
    ratio = sum(latencies) / sum(child["samples_s"])
    return len(child["samples_s"]) / (child["window_s"] * ratio)


def end_to_end(children: list[dict], setups: list[float]) -> tuple[dict[str, float], int]:
    """End-to-end metrics over untraced children; returns (metrics, samples).

    Host rates and latencies are in reference-host units (see calib.py).
    ``ops_per_s`` is the median over the children, so that one child slowed
    by a neighbour on the host does not move it; the latency percentiles
    are over the calls of all children together, for a steadier tail.
    ``setups`` holds every ``setup_s`` measured in the run.
    """
    for c in children:
        n = len(c["samples_s"])
        if not n or n - rank(n, 99) < TAIL_SAMPLES:
            raise BenchError(
                f"a child has {n - rank(n, 99) if n else 0} samples beyond p99 "
                f"(need {TAIL_SAMPLES}); run longer"
            )
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    latencies = [host_latencies(c) for c in children]
    pooled = [t for lat in latencies for t in lat]
    metrics = {
        "ops_per_s": statistics.median(map(host_rate, children, latencies)),
        "op_p50_us": percentile(pooled, 50) * 1e6,
        "op_p99_us": percentile(pooled, 99) * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "ok_frac": 1.0 - failed / attempted,
    }
    metrics.update(children[0]["sim"])
    return metrics, sum(len(c["samples_s"]) for c in children)


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["layers"])
    base = host_rate(untraced, host_latencies(untraced))
    metrics["trace.overhead_frac"] = 1.0 - host_rate(traced, host_latencies(traced)) / base
    return metrics


def render(header, metrics, units, attempted, failed, errors) -> list[str]:
    """The printed report: one line per metric with its unit, then the
    JSON result line."""
    lines = [header]
    for name in sorted(metrics):
        lines.append(f"  {name:36s} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in metrics
        },
    }
    lines.append(json.dumps(result))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "repro").is_dir():
            raise BenchError("no program source under src/repro")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be > 0")
        deadline = time.monotonic() + RUN_BUDGET_S
        setups: list[float] = []
        if args.trace:
            declared = spec["per_layer"]
            # One episode each (0 s of work asks for the minimum), so the
            # two processes run the same work and compare like for like.
            children = [
                run_child(root, args, False, 0.0, deadline),
                run_child(root, args, True, 0.0, deadline),
            ]
        else:
            declared = spec["end_to_end"]
            share = args.seconds / UNTRACED_CHILDREN
            children = []
            for _ in range(UNTRACED_CHILDREN):
                children.append(run_child(root, args, False, share, deadline))
                setups.append(children[-1]["setup_s"])
                for _ in range(SETUP_PROBES):
                    probe = run_child(root, args, False, share, deadline, setup_only=True)
                    setups.append(probe["setup_s"])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    errors = [e for c in children for e in c["errors"]]
    digests = {c["sim_facts_digest"] for c in children}
    if len(digests) != 1:
        errors.append("simulated results differ between runs with the same seed")
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared}
    samples = None
    try:
        if args.trace:
            metrics = per_layer(*children)
        else:
            metrics, samples = end_to_end(children, setups)
        if set(metrics) != set(units):
            raise BenchError(
                f"computed metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if not errors:
            return 2
        metrics = {}  # a failed check makes the run fail either way
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)

    header = (
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed}"
        + (f" host_op_samples={samples}" if samples is not None else "")
        # mean probe time over REF_PROBE_S: how slow the host ran (calib.py)
        + " host_slowness=" + ",".join(
            f"{statistics.fmean(c['probes_s']) / calib.REF_PROBE_S:.3f}"
            for c in children if c["probes_s"]
        )
    )
    for line in render(header, metrics, units, attempted, failed, errors):
        print(line)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
