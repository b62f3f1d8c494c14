"""``python -m perfbench`` — run workloads, print every metric, compare.

::

    python -m perfbench                         # all six workloads, both phases
    python -m perfbench --workload sim_static   # one workload, both phases
    python -m perfbench --workload sim_static --seed 3 --seconds 10 --trace 0
    python -m perfbench compare before.jsonl after.jsonl

With ``--workload`` the last line of standard output is the one JSON
object the benchmark contract asks for: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional

from . import ROOT, TMP_DIR, add_src_to_path

#: name -> (module, class); modules load on demand so a workload's
#: ``setup_s`` only pays for the imports it reaches.
WORKLOADS = {
    "sim_static": ("perfbench.workloads", "SimStatic"),
    "sim_elastic": ("perfbench.workloads", "SimElastic"),
    "capacity_zoo": ("perfbench.workloads", "CapacityZoo"),
    "sweep_fig09": ("perfbench.workloads", "SweepFig09"),
    "serve_fanin": ("perfbench.serveload", "ServeFanin"),
    "serve_intervals": ("perfbench.serveload", "ServeIntervals"),
}

HISTORY_SCHEMA = "perfbench.run/v1"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_workload(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


# ----------------------------------------------------------------------
# Leaving nothing behind
# ----------------------------------------------------------------------


def leftovers() -> List[str]:
    """Everything this process should not still own when it exits."""
    found = []
    children = multiprocessing.active_children()
    if children:
        found.append(f"multiprocessing children alive: {children}")
    threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        found.append(f"threads alive: {threads}")
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids = handle.read().split()
            if pids:
                found.append(f"child processes of task {task}: {pids}")
    except OSError:
        pass  # the kernel does not expose it here
    if TMP_DIR.exists():
        found.append(f"{TMP_DIR} still exists")
    return found


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------


def _unit_table(contract: dict) -> Dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }


def print_result(doc: dict, units: Dict[str, str], out) -> None:
    info = doc["info"]
    print(f"== {doc['workload']} (seed {doc['seed']}) ==", file=out)
    if doc["end_to_end"]:
        print(
            f"  {info['passes']} timed passes, raw seconds {info['pass_s']}; "
            f"raw set-ups {info['setups_s']} + import {info['import_s']} s; "
            f"host speed {info['host_speed']} over "
            f"{info['kernel_timings']} kernel timings",
            file=out,
        )
        print(
            f"  decision_ms_p50 is the median over passes of the median of "
            f"{info['latency_samples']} latency samples per pass; peak RSS "
            f"from {info['rss_source']}",
            file=out,
        )
    if doc["per_layer"]:
        print(
            f"  loadgen.decision_ms_tail is the p{info['tail_percentile']:g} "
            "of a reference pass's latency samples, median over passes",
            file=out,
        )
    for group in ("end_to_end", "per_layer"):
        for name, value in doc[group].items():
            print(f"  {name:<40} {value:>16.6g} {units[name]}", file=out)
    print(
        f"  digest {doc.get('digest')}  ops_attempted {doc['attempted']}  "
        f"ops_failed {doc['failed']}",
        file=out,
    )
    for problem in doc["problems"]:
        print(f"  FAILED: {problem}", file=out)


def contract_line(doc: dict, units: Dict[str, str]) -> str:
    metrics = {
        name: {"value": value, "unit": units[name]}
        for group in ("end_to_end", "per_layer")
        for name, value in doc[group].items()
    }
    return json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------


def git_head() -> str:
    """``git rev-parse HEAD`` without a child process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def history_record(docs: List[dict], seed: int, seconds: float) -> dict:
    from . import layers

    calib = next(
        (d["per_layer"]["host.calib_s"] for d in docs if d["per_layer"]), None
    )
    if calib is None:
        calib = min(layers.kernel_seconds() for _ in range(3))
    return {
        "schema": HISTORY_SCHEMA,
        "commit": git_head(),
        "host.calib_s": calib,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {
            d["workload"]: {
                "correct": d["correct"],
                "attempted": d["attempted"],
                "failed": d["failed"],
                "digest": d.get("digest"),
                "end_to_end": d["end_to_end"],
                "per_layer": d["per_layer"],
            }
            for d in docs
        },
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _run_parser() -> argparse.ArgumentParser:
    from .harness import INJECTIONS

    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Run the repository benchmark "
        "(or: python -m perfbench compare A B [...]).",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed passes per workload (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                        "metrics only (default: both)")
    parser.add_argument("--inject", choices=INJECTIONS, default=None,
                        help="self-test: corrupt one pass so the checks "
                        "must fail")
    parser.add_argument("--append", metavar="FILE", default=None,
                        help="append one JSON line for this run to FILE "
                        "(keep it outside the repository tree)")
    return parser


def main(argv: Optional[List[str]] = None, started: Optional[float] = None) -> int:
    started = started if started is not None else time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    args = _run_parser().parse_args(argv)
    try:
        add_src_to_path()
        contract = load_contract()
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = _unit_table(contract)

    from .harness import measure

    names = [args.workload] if args.workload else list(WORKLOADS)
    docs = []
    try:
        for name in names:
            doc = measure(
                load_workload(name), args.seed, args.seconds, args.trace,
                inject=args.inject, started=started,
            )
            started = None  # later workloads find the imports done
            docs.append(doc)
            print_result(doc, units, sys.stdout)
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        try:
            TMP_DIR.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    left = leftovers()
    for item in left:
        print(f"perfbench: left behind: {item}", file=sys.stderr)
    if left:
        return 3
    if args.append:
        with open(args.append, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                history_record(docs, args.seed, args.seconds), sort_keys=True
            ) + "\n")
    if args.workload:
        print(contract_line(docs[0], units))
    else:
        print(json.dumps({
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "workloads": {d["workload"]: d["correct"] for d in docs},
        }))
    return 0 if all(d["correct"] for d in docs) else 1
