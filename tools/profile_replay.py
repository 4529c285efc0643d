#!/usr/bin/env python
"""Profile the trace-replay hot path with cProfile.

Replays a scripted IA-style trace through a scheme on the Table II fleet
under cProfile and prints the top-N functions by cumulative time — the
first stop when replay throughput regresses (see ``docs/performance.md``
for the workflow and the current hot-path inventory).

Usage::

    PYTHONPATH=src python tools/profile_replay.py                  # fig3-scale HyRD replay
    PYTHONPATH=src python tools/profile_replay.py --months 3 --top 40
    PYTHONPATH=src python tools/profile_replay.py --scheme racs --sort tottime
    PYTHONPATH=src python tools/profile_replay.py --out replay.pstats  # for snakeviz etc.
    PYTHONPATH=src python tools/profile_replay.py --attribution  # + sim-time phase table
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scheme",
        choices=("hyrd", "racs", "duracloud"),
        default="hyrd",
        help="scheme to replay through (default hyrd)",
    )
    parser.add_argument(
        "--months", type=int, default=12, help="IA trace months (default 12)"
    )
    parser.add_argument(
        "--writes-per-month",
        type=int,
        default=12,
        help="writes per month (default 12, the fig3 scale)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--top", type=int, default=25, help="rows of the profile table (default 25)"
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also dump raw pstats data to PATH",
    )
    parser.add_argument(
        "--attribution",
        action="store_true",
        help="re-run the replay traced (untimed) and print the critical-path "
        "phase table next to the cProfile output",
    )
    args = parser.parse_args(argv)

    from repro.scenarios import fig3_replay
    from repro.workloads.filesizes import MediaLibraryFileSizes
    from repro.workloads.ia_trace import IATraceConfig

    config = IATraceConfig(
        months=args.months,
        writes_per_month=args.writes_per_month,
        sizes=MediaLibraryFileSizes(scale=0.125),
    )
    scheme, ops, replayer = fig3_replay(args.seed, scheme=args.scheme, config=config)
    print(
        f"profile-replay: {len(ops)} ops through {args.scheme} "
        f"(months={args.months}, writes/month={args.writes_per_month}, "
        f"seed={args.seed})"
    )

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    replayer.run(scheme, ops)
    profiler.disable()
    wall = time.perf_counter() - t0
    print(f"profile-replay: {wall:.3f}s wall ({len(ops) / wall:.1f} ops/s under profiler)")
    print()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"profile-replay: raw stats written to {args.out}")

    if args.attribution:
        # Separate traced run: cProfile measures host CPU, attribution
        # measures simulated wall-clock — mixing them would have the tracer's
        # overhead pollute the profile.  Same seed, so it is the same run.
        from repro.obs import attribute_trace, render_attribution

        scheme, ops, replayer = fig3_replay(
            args.seed, scheme=args.scheme, trace=True, config=config
        )
        replayer.run(scheme, ops)
        print()
        print(render_attribution(attribute_trace(scheme.tracer.records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
