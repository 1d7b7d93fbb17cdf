"""Write one point of the benchmark trajectory: ``BENCH_<n>.json``.

Usage (from the repository root):

    python3 tools/bench_point.py --out BENCH_12.json --runs 10
    python3 tools/bench_point.py --out BENCH_12.json --runs 10 \\
        --against ../other-checkout BENCH_11.json

Runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0``
once per seed 1..runs and every workload in ``BENCHMARK.json``, for its
``run_seconds``, each in its own process, and writes per workload the median
and quartiles of every metric, under the names ``BENCHMARK.json`` gives
them, with every run's value beside them.  It also
records the BLAS (name, version, thread count), CPU count, Python and numpy
versions that ``perfbench/run.py`` reports, and the line count of ``src/``.

With ``--against TREE FILE`` the same runs are made on a second checkout and
written to FILE; the two trees alternate run by run, and which goes first
alternates by seed, so that both see the host in the same states.  Then it
prints, per metric, both medians, the other tree's quartiles and the number
of seeds on which this tree did better.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: its result line and its details line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    detail, line = (json.loads(s) for s in proc.stdout.strip().splitlines()[-2:])
    return line, detail


def summarize(tree: Path, seconds: float, seeds: list[int], runs: dict) -> dict:
    """The BENCH document for one tree from ``runs[workload] = [(line, detail), ...]``."""
    first = next(iter(runs.values()))[0][1]
    workloads = {}
    for name, pairs in runs.items():
        lines = [line for line, _ in pairs]
        metrics = {}
        for key, value in lines[0]["metrics"].items():
            values = [line["metrics"][key]["value"] for line in lines]
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            metrics[key] = {"unit": value["unit"], "median": med, "q1": q1, "q3": q3, "runs": values}
        workloads[name] = {
            "correct_runs": sum(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": metrics,
        }
    return {
        "schema": SCHEMA,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "machine": {k: first[k] for k in ("blas", "cpus", "python", "numpy")},
        "src_lines": src_lines(tree),
        "workloads": workloads,
    }


def compare(mine: dict, other: dict, better: dict) -> None:
    for name, w in mine["workloads"].items():
        for key, m in w["metrics"].items():
            o = other["workloads"][name]["metrics"][key]
            sign = 1 if better[key] == "higher" else -1
            won = sum(sign * (a - b) > 0 for a, b in zip(m["runs"], o["runs"]))
            print(f"{name:16s} {key:17s} {o['median']:10.4g} [{o['q1']:.4g}, {o['q3']:.4g}] "
                  f"-> {m['median']:10.4g}  better on {won}/{len(m['runs'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH file for this checkout")
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..runs per workload")
    parser.add_argument("--against", nargs=2, metavar=("TREE", "FILE"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    trees = [(ROOT, Path(args.out))]
    if args.against:
        trees.append((Path(args.against[0]).resolve(), Path(args.against[1])))
    seeds = list(range(1, args.runs + 1))
    runs = [{w: [] for w in workloads} for _ in trees]
    for seed in seeds:
        for w in workloads:
            order = range(len(trees)) if seed % 2 else reversed(range(len(trees)))
            for i in order:
                runs[i][w].append(run_once(trees[i][0], w, seed, seconds))
                line = runs[i][w][-1][0]
                print(f"seed {seed} {w} {trees[i][0]}: correct={line['correct']} "
                      f"steps_per_s={line['metrics']['steps_per_s']['value']:.4g}", file=sys.stderr)
    docs = [summarize(tree, seconds, seeds, r) for (tree, _), r in zip(trees, runs)]
    for (_, out), doc in zip(trees, docs):
        out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.against:
        compare(docs[0], docs[1], {m["name"]: m["better"] for m in bench["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
