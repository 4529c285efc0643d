"""One workload in one fresh process: set up, run the timed window, report.

``run.py`` starts this script; it is not meant to be run by hand.  The last
line of its standard output is one JSON object with the host measurements,
the simulated results of one episode and, when traced, the per-layer
metrics.

Usage::

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --spawned T --traced 0|1 [--spans PATH] [--setup-only]

The child runs a fixed amount of work: as many whole episodes as take
about ``--seconds`` on the reference box (``episode_s`` of the workload),
and at least one.  Fixed work keeps the share of the process's warm-up in
the measurement the same from run to run, however fast the host is.

``--spawned`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process, so ``setup_s`` covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import calib
import layers
from repro.fs.namespace import normalize_path
from repro.schemes import HyrdScheme
from spans import DRIVE, SCHEME_OPS, SpanRecorder, install
from workloads import WORKLOADS, sim_facts, sim_metrics

#: least host time between two host-speed probes
PROBE_INTERVAL_S = 0.005


class OpTimer:
    """One ``perf_counter`` pair per top-level public scheme call.

    Before a call that starts ``PROBE_INTERVAL_S`` or more after the last
    probe, it also runs ``probe`` (see ``calib.py``), outside the call's
    timing.  ``probe_at[j]`` is the number of calls timed before probe
    ``j``; ``probe_s`` is the host time the probes took, which the child
    takes out of its timed window.
    """

    def __init__(self, probe) -> None:
        self.samples: list[float] = []
        self.probes: list[float] = []
        self.probe_at: list[int] = []
        self.probe_s = 0.0
        self._last_probe = float("-inf")
        self.on = False
        self._depth = 0
        self._probe = probe

    def wrap(self, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if self._depth or not self.on:
                return fn(*args, **kwargs)
            self._depth = 1
            try:
                t0 = clock()
                if t0 - self._last_probe >= PROBE_INTERVAL_S:
                    self.probes.append(self._probe())
                    self.probe_at.append(len(self.samples))
                    self._last_probe = clock()
                    self.probe_s += self._last_probe - t0
                t0 = clock()
                result = fn(*args, **kwargs)
                self.samples.append(clock() - t0)
            finally:
                self._depth = 0
            return result

        return timed


def _striped(scheme, path) -> int:
    entry = scheme.namespace.lookup(normalize_path(path))
    return int(entry is not None and entry.codec != "replication")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="report setup_s and exit before the timed window")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    recorder = SpanRecorder()
    if args.traced:
        install(recorder, HyrdScheme, _striped)
    # In the traced process the probes get a span of their own, so that
    # their time is not counted as the driver's self time.
    timer = OpTimer(recorder.wrap("bench.probe", calib.probe) if args.traced else calib.probe)
    for op in SCHEME_OPS:
        setattr(HyrdScheme, op, timer.wrap(getattr(HyrdScheme, op)))

    units = workload.inputs(args.seed)
    world = workload.build(units[0])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    window = 0.0
    episodes = max(1, round(args.seconds / workload.episode_s))
    attempted = failed = 0
    errors: list[str] = []
    facts: list[dict] = []
    counters = {"retries": 0, "breaker_fast_fail": 0, "shed": 0}
    for i in range(episodes * len(units)):
        unit = units[i % len(units)]
        if world is None:
            world = workload.build(unit)
        world.t0 = world.clock.now
        first_cycle = i < len(units)
        recorder.on = bool(args.traced) and first_cycle
        timer.on = True
        t0 = time.perf_counter()
        with recorder.span(DRIVE):
            result = workload.drive(world)
        window += time.perf_counter() - t0
        timer.on = recorder.on = False

        attempted += result.attempted
        failed += result.failed
        if not result.content_ok:
            errors.append(f"unit {i}: {result.error}")
        elif result.error:  # an op failure, already counted in ``failed``
            print(f"unit {i}: {result.error}", file=sys.stderr)
        unit_facts = sim_facts(world)
        if first_cycle:
            facts.append(unit_facts)
            counters["retries"] += world.scheme.collector.counter("retries")
            counters["breaker_fast_fail"] += world.scheme.collector.counter(
                "breaker_fast_fail"
            )
            if world.plane is not None:
                counters["shed"] += world.plane.admission.shed_total()
        elif unit_facts != facts[i % len(units)]:
            errors.append(f"unit {i}: simulated results differ from its first run")
        mismatch = workload.check(world)
        if mismatch:
            errors.append(f"unit {i}: {mismatch}")
        world = None
        gc.collect()

    out = {
        "setup_s": setup_s,
        "window_s": window - timer.probe_s,
        "probes_s": timer.probes,
        "probe_at": timer.probe_at,
        "samples_s": timer.samples,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim_metrics(facts),
        "sim_facts_digest": layers.digest(facts),
    }
    if args.traced:
        out["layers"] = layers.per_layer(recorder, counters, facts)
        if args.spans:
            recorder.write_jsonl(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
