#!/usr/bin/env python3
"""Compare two states of the repository on every BENCHMARK.json workload.

    python3 scripts/bench.py --pr LABEL [--base HEAD] [--head .] [--pairs 10]
                             [--seconds 10] [--seed 1701] [--tier1]

Each side is exported into its own temporary directory: a commit by
``git archive`` (its committed files, as a fresh checkout has them), and
``.`` by copying the files of the working tree that git tracks or would
add (``git ls-files --cached --others --exclude-standard``). Each
workload then runs ``perfbench/run.py --trace 0`` in N pairs, one run per
side. Pair k uses seed ``--seed`` + k on both sides, and the side that
runs first alternates from pair to pair.

The result goes to ``BENCH_<pr>.json`` at the repository root. Per
workload and side it holds every run's end-to-end metrics, its
``correct`` flag and failed ops, and, as ``iterations``, the iterations
of the IV points it solved: Newton steps in the dark, Gummel cycles under
generation; then the median and quartiles of each metric, the ratio of
the medians and the pairs the head side won. It also records the host,
the line count of ``src/dotdiode`` on both sides and, with ``--tier1``,
the wall time and summary of the tier-1 tests on the head side.

Standard library only. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev, dest):
    """Write the files of `rev` (a commit, or "." for the working tree) to
    `dest`; return the commit it names, or "working tree"."""
    dest.mkdir(parents=True)
    if rev == ".":
        names = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True).stdout.split(b"\0")
        for name in filter(None, names):
            source = ROOT / os.fsdecode(name)
            if source.is_file():
                target = dest / os.fsdecode(name)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
        return "working tree"
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def line_count(tree):
    return sum(len(p.read_text().splitlines())
               for p in sorted((tree / "src" / "dotdiode").rglob("*.py")))


def run_workload(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in `tree`: its last output line
    and the iterations of the IV points it solved (Newton steps in the dark,
    Gummel cycles under generation)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit": proc.returncode, "correct": False,
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    summary = json.loads(lines[-1])
    run = {"seed": seed, "exit": proc.returncode, "correct": summary["correct"],
           "attempted": summary["attempted"], "failed": summary["failed"],
           "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}
    detail = tree / "perfbench" / "_work" / f"{workload}.json"
    points = json.loads(detail.read_text()).get("iv_points", []) if detail.exists() else []
    if points:
        run["iterations"] = sum(p[2] for p in points)
    return run


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarise(pairs, metrics):
    """Medians, quartiles, ratios and pair wins of each end-to-end metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side]["metrics"][name] for p in pairs
                        if name in p[side].get("metrics", {})] for side in ("base", "head")}
        entry = {side: {"median": statistics.median(v) if v else None,
                        "quartiles": quartiles(v)} for side, v in sides.items()}
        wins = [p for p in pairs if name in p["base"].get("metrics", {})
                and name in p["head"].get("metrics", {})]
        entry["head_wins"] = sum(
            (p["head"]["metrics"][name] < p["base"]["metrics"][name]) == lower
            and p["head"]["metrics"][name] != p["base"]["metrics"][name] for p in wins)
        entry["pairs"] = len(wins)
        base_median, head_median = entry["base"]["median"], entry["head"]["median"]
        entry["ratio"] = head_median / base_median if base_median else None
        entry["bound"] = metric["bound"]
        out[name] = entry
    return out


def tier1(tree):
    """Wall time and summary line of the tier-1 tests (ROADMAP.md) in `tree`."""
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"))
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "summary": (proc.stdout.strip().splitlines() or [""])[-1]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="label of the BENCH_<pr>.json file")
    parser.add_argument("--base", default="HEAD", help="commit of the reference side")
    parser.add_argument("--head", default=".", help='commit of the compared side, or "."')
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--tier1", action="store_true", help="time the tier-1 tests too")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        revs = {side: export(rev, trees[side])
                for side, rev in (("base", args.base), ("head", args.head))}
        result = {
            "pr": args.pr, "base": revs["base"], "head": revs["head"],
            "protocol": {"command": "perfbench/run.py --trace 0", "seconds": args.seconds,
                         "pairs": args.pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
                         "order": "base first in even pairs, head first in odd pairs"},
            "host": {"platform": platform.platform(), "machine": platform.machine(),
                     "python": platform.python_version(), "nproc": os.cpu_count()},
            "src_dotdiode_lines": {side: line_count(t) for side, t in trees.items()},
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_workload(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} {pair[side].get('metrics', {}).get('wall_s', float('nan')):.3f} s"
                    for side in ("base", "head")), flush=True)
            result["workloads"][workload] = {
                "runs": pairs, "all_correct": all(p[s]["correct"] for p in pairs
                                                  for s in ("base", "head")),
                "metrics": summarise(pairs, contract["end_to_end"])}
        if args.tier1:
            result["tier1"] = tier1(trees["head"])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
