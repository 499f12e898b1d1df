#!/usr/bin/env python3
"""Compare two sets of end-to-end results: a parent and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out``; a file
may also carry several runs under ``"sets"`` (as ``results/seed0.json``
does).  Traced runs are skipped: their numbers are per-layer and carry
no bound.  Runs are paired in file order, so alternate which side runs
first when producing them.

For every (metric, workload) pair the table shows each side's median
and quartiles, the share of pairs the change wins (ties count for
neither side) and a verdict, using the bound from ``BENCHMARK.json``:

``unresolved``  the parent's spread (quartile distance over median) is
                wider than the bound, and not every change run beats
                every parent run;
``better``      at least ten pairs, the change wins at least nine tenths
                of them, and the medians differ by more than the
                parent's quartile distance;
``worse``       the change's median is worse than the parent's by more
                than the bound;
``unchanged``   otherwise.

It also flags a change in any workload's ``outputs_digest`` and any
increase in the failed share.  Exit status 1 when anything is worse,
an output digest changed or the failed share rose; 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from summary import quartiles

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(directory: pathlib.Path) -> List[Dict[str, object]]:
    """Every untraced run document under ``directory``, in file order."""
    runs: List[Dict[str, object]] = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for run in doc.get("sets", [doc]):
            if "workloads" in run and not run.get("trace"):
                runs.append(run)
    return runs


def verdict(parent: List[float], change: List[float], *, bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """``(verdict, share of pairs the change wins)``."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    enough = len(pairs) >= MIN_PAIRS_FOR_GAIN
    if spread > bound and not (all_better and enough):
        return "unresolved", share
    if (enough and share >= WIN_SHARE_FOR_GAIN and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "better", share
    worse_by = (c_med - p_med) if lower_is_better else (p_med - c_med)
    if p_med and worse_by / abs(p_med) > bound:
        return "worse", share
    return "unchanged", share


def _failed_share(runs: List[Dict[str, object]], workload: str
                  ) -> Optional[float]:
    records = [r["workloads"][workload] for r in runs
               if workload in r["workloads"]]
    attempted = sum(r["attempted"] for r in records)
    return (sum(r["failed"] for r in records) / attempted
            if attempted else None)


def compare(parent_runs, change_runs, benchmark) -> Tuple[List[str], bool]:
    """The report lines and whether the change regressed anything."""
    bad = False
    lines = [f"{'metric':16s} {'workload':13s} "
             f"{'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s}  wins   verdict"]
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sides = []
            for runs in (parent_runs, change_runs):
                sides.append([
                    r["workloads"][workload]["metrics"][name]["value"]
                    for r in runs
                    if name in r["workloads"].get(workload, {})
                    .get("metrics", {})])
            parent, change = sides
            if not parent or not change:
                lines.append(f"{name:16s} {workload:13s} missing samples")
                continue
            result, share = verdict(
                parent, change, bound=metric["bound"],
                lower_is_better=metric["better"] == "lower")
            bad |= result == "worse"
            cells = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:12.4f} [{q1:.4f}, {q3:.4f}]")
            lines.append(f"{name:16s} {workload:13s} {cells[0]:>34s} "
                         f"{cells[1]:>34s}  {share:4.0%}   {result}")
        digests = [{r["workloads"][workload].get("outputs_digest")
                    for r in runs if workload in r["workloads"]}
                   for runs in (parent_runs, change_runs)]
        if digests[0] != digests[1]:
            bad = True
            lines.append(f"  {workload}: outputs_digest changed "
                         f"{sorted(map(str, digests[0]))} -> "
                         f"{sorted(map(str, digests[1]))}")
        p_fail = _failed_share(parent_runs, workload)
        c_fail = _failed_share(change_runs, workload)
        if p_fail is not None and c_fail is not None and c_fail > p_fail:
            bad = True
            lines.append(f"  {workload}: failed share rose "
                         f"{p_fail:.4g} -> {c_fail:.4g}")
    return lines, bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change end-to-end results.")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        sides = [load_runs(d) for d in (args.parent, args.change)]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not all(sides):
        print("error: both directories need untraced result files",
              file=sys.stderr)
        return 2
    print(f"{len(sides[0])} parent run(s), {len(sides[1])} change run(s)")
    lines, bad = compare(sides[0], sides[1], benchmark)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
