"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` repeats the timed phase under cProfile and prints the
per-layer metrics.  The program is imported from ``src/`` next to this
directory; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet", "revisit", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"repro was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import fleet, revisit, serve
    from perfbench.common import Run

    module = {"fleet": fleet, "revisit": revisit, "serve": serve}[
        args.workload]
    run = Run(args.workload)
    module.run_workload(run, args.seed, args.seconds, bool(args.trace))
    result = run.result("per_layer" if args.trace else "end_to_end")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
