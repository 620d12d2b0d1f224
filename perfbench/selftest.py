"""Self-tests of the benchmark: seeded inputs and declared metrics.

    python3 perfbench/selftest.py

Checks that
- two input generations from one seed are byte-identical (the fleet
  visit samples, the revisit grid cells, the recorded serve stream) and
  another seed changes each of them;
- ``BENCHMARK.json`` declares every metric with a unit and a direction,
  and every workload, run briefly with ``--trace 0`` and ``--trace 1``,
  prints exactly the declared metrics with the declared units.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _inputs(seed: int, corpus) -> dict[str, bytes]:
    from perfbench import fleet, revisit, serve
    populations = fleet.inputs(seed, 10, corpus)
    return {
        "fleet samples": b"".join(fleet.sample_bytes(visits)
                                  for _spec, visits in populations),
        "revisit cells": revisit.cells_bytes(revisit.cells(corpus, seed)),
        "serve stream": serve.record(corpus, seed).digest().encode(),
    }


def check_inputs(failures: list[str]) -> None:
    from repro.workload.corpus import make_corpus
    corpus = make_corpus()
    first, again, other = (_inputs(seed, corpus) for seed in (1, 1, 2))
    for name in first:
        if first[name] != again[name]:
            failures.append(f"{name}: one seed gave two different inputs")
        if first[name] == other[name]:
            failures.append(f"{name}: seeds 1 and 2 gave the same input")


def check_declarations(failures: list[str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            if not NAME.match(entry["name"]) or entry["name"] in names:
                failures.append(f"{section}: bad or repeated name "
                                f"{entry['name']!r}")
            names.add(entry["name"])
            if section == "workloads":
                continue
            if not UNIT.match(entry["unit"]):
                failures.append(f"{entry['name']}: bad unit")
            if entry["better"] not in ("higher", "lower"):
                failures.append(f"{entry['name']}: bad direction")
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                failures.append(f"{entry['name']}: bound out of range")
    return spec


def check_runs(spec: dict, failures: list[str]) -> None:
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = spec["command"] + ["--workload", workload["name"],
                                      "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace)]
            done = subprocess.run(args, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            label = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if printed != declared:
                failures.append(f"{label}: printed metrics differ from "
                                f"BENCHMARK.json {section}")
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                failures.append(f"{label}: output checks failed")
            print(f"ok {label}", flush=True)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    failures: list[str] = []
    spec = check_declarations(failures)
    check_inputs(failures)
    check_runs(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
