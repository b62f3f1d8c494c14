"""``python -m perfbench compare A B [...]`` — judge sets of runs.

Each file is one *set* of runs: the JSON lines ``--append FILE`` wrote
(one per run).  The first file is the baseline; every other file is
compared against it, per workload and end-to-end metric, by the bounds
``BENCHMARK.json`` fixes:

* ``same``   — the medians differ by no more than the bound;
* ``worse`` / ``better`` — they differ by more, in that direction;
* ``unresolved`` — the run-to-run spread of either set (distance between
  its quartiles as a share of its median) is wider than the bound, so
  the medians cannot be told apart — unless every run of one set beats
  every run of the other, which still counts.

A digest that changed for the same seed is flagged as "simulated results
changed": a speed-up that alters results is not a speed-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import stats


def load_runs(path: str) -> List[dict]:
    """The run records of one set (JSON lines, or one JSON document)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
        runs = doc if isinstance(doc, list) else [doc]
    except json.JSONDecodeError:
        runs = [json.loads(line) for line in text.splitlines() if line.strip()]
    for run in runs:
        if "workloads" not in run:
            raise ValueError(f"{path}: not a perfbench run record")
    if not runs:
        raise ValueError(f"{path}: no runs")
    return runs


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        float(run["workloads"][workload]["end_to_end"][metric])
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def verdict(base: List[float], other: List[float], better: str,
            bound: float) -> str:
    """One of same / worse / better / unresolved (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_mid, other_mid = stats.median(base), stats.median(other)
    worse_by = sign * (other_mid - base_mid) / abs(base_mid)
    if max(stats.spread(base), stats.spread(other)) > bound:
        if all(sign * (o - b) < 0 for o in other for b in base):
            return "better"
        if all(sign * (o - b) > 0 for o in other for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _digests(runs: List[dict], workload: str) -> Dict[int, str]:
    return {
        run["seed"]: run["workloads"][workload].get("digest")
        for run in runs if workload in run["workloads"]
    }


def compare_sets(base: List[dict], other: List[dict], contract: dict) -> List[dict]:
    """One row per workload x end-to-end metric present in both sets."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        base_digests = _digests(base, workload)
        other_digests = _digests(other, workload)
        changed = any(
            seed in other_digests and other_digests[seed] != digest
            for seed, digest in base_digests.items()
        )
        for spec in contract["end_to_end"]:
            a = _values(base, workload, spec["name"])
            b = _values(other, workload, spec["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload,
                "metric": spec["name"],
                "unit": spec["unit"],
                "bound": spec["bound"],
                "base": stats.quartiles(a),
                "other": stats.quartiles(b),
                "runs": (len(a), len(b)),
                "verdict": verdict(a, b, spec["better"], spec["bound"]),
                "results_changed": changed,
            })
    return rows


def render(rows: List[dict], label: str, out) -> None:
    print(f"-- baseline vs {label} --", file=out)
    print(
        f"{'workload':<16}{'metric':<18}{'baseline q1/median/q3':>36}"
        f"{'other q1/median/q3':>36}  {'change':>8}  verdict",
        file=out,
    )
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["base"], row["other"]
        change = 100.0 * (b2 - a2) / abs(a2) if a2 else 0.0
        print(
            f"{row['workload']:<16}{row['metric']:<18}"
            f"{a1:>12.5g}{a2:>12.5g}{a3:>12.5g}"
            f"{b1:>12.5g}{b2:>12.5g}{b3:>12.5g}"
            f"  {change:>+7.1f}%  {row['verdict']}"
            f" (bound {100 * row['bound']:.0f}%, runs "
            f"{row['runs'][0]}/{row['runs'][1]})",
            file=out,
        )
    for workload in sorted({r["workload"] for r in rows if r["results_changed"]}):
        print(f"!! {workload}: simulated results changed (digest differs "
              "for the same seed)", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    from .cli import load_contract

    parser = argparse.ArgumentParser(
        prog="python -m perfbench compare",
        description="Compare sets of runs (files written by --append).",
    )
    parser.add_argument("baseline")
    parser.add_argument("others", nargs="+")
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        base = load_runs(args.baseline)
        sets = [(path, load_runs(path)) for path in args.others]
    except (OSError, ValueError) as exc:
        print(f"perfbench compare: {exc}", file=sys.stderr)
        return 2
    counts: Dict[str, int] = {}
    changed = False
    for path, runs in sets:
        rows = compare_sets(base, runs, contract)
        render(rows, path, sys.stdout)
        for row in rows:
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
            changed = changed or row["results_changed"]
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())) or "nothing to compare")
    return 1 if counts.get("worse") or changed else 0
