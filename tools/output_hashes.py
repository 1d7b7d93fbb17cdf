"""Hash the fixed-seed outputs of one source tree: the byte-identity check.

Usage (from the repository root):

    python3 tools/output_hashes.py                # this tree
    python3 tools/output_hashes.py ../other-checkout
    python3 tools/output_hashes.py --against ../other-checkout

Runs the fixed-seed command set against ``TREE/src`` and ``TREE/configs``,
in a temporary directory, with ``OPENBLAS_NUM_THREADS=1`` (a multi-threaded
BLAS splits the training GEMMs differently, so the weights differ in their
last bits):

* ``train --trace`` of sadrl, madrl and hdrl on desk (12 episodes) and on
  default (4 episodes), each followed by ``evaluate --checkpoint
  --episodes 2 --trace``: train_log.csv, checkpoint.json, the train trace,
  steps.csv, report.json and the evaluation trace;
* ``evaluate --episodes 2 --trace`` of exhaustive and random on desk:
  steps.csv, report.json and the trace;
* ``benchmark --algos random,exhaustive,hdrl --train-episodes 2 --sweep
  local_power`` on desk: sweep.csv, and benchmark.csv without its
  decision-time column (wall-clock time), its rows joined by ``\\n``.

Prints one JSON object of sha256 prefixes (12 hex digits), one per output,
and for each trace a second one, ``<name>:steps``, with its header lines
left out: the header records the config, the step lines do not.  Comparing
two trees' objects shows which outputs a change altered; ``--against
OTHER`` does that comparison: it hashes OTHER first, then TREE, prints each
output whose prefix differs (``name: OTHER's -> TREE's``, a missing output
as ``-``), and exits 1 on any difference.  This is a check to run by hand,
not a test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAINED = (("desk", 12), ("default", 4))
LEARNED = ("sadrl", "madrl", "hdrl")
TIME_COLUMN = "decision_time_s_per_episode"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def trace_hashes(name: str, path: Path) -> dict:
    """The whole trace, and its step lines alone."""
    data = path.read_bytes()
    steps = b"".join(
        line for line in data.splitlines(keepends=True) if json.loads(line).get("type") != "header"
    )
    return {name: sha(data), f"{name}:steps": sha(steps)}


def without_time(path: Path) -> bytes:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    drop = rows[0].index(TIME_COLUMN)
    return "\n".join(",".join(r[:drop] + r[drop + 1 :]) for r in rows).encode()


def output_hashes(tree: Path, work: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}

    def cli(*args) -> None:
        cmd = [sys.executable, "-m", "specshare.cli", *map(str, args)]
        subprocess.run(cmd, cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)

    hashes = {}
    for cfg_name, episodes in TRAINED:
        cfg = tree / "configs" / f"{cfg_name}.cfg"
        for algo in LEARNED:
            name = f"{cfg_name}/{algo}"
            train, ev = work / name / "train", work / name / "eval"
            cli("train", "--config", cfg, "--algo", algo, "--episodes", episodes,
                "--out", train, "--trace", train / "trace.jsonl")
            cli("evaluate", "--config", cfg, "--algo", algo, "--checkpoint", train / "checkpoint.json",
                "--episodes", 2, "--out", ev, "--trace", ev / "trace.jsonl")
            for label, path in (("train_log", train / "train_log.csv"),
                                ("checkpoint", train / "checkpoint.json"),
                                ("steps", ev / "steps.csv"), ("report", ev / "report.json")):
                hashes[f"{name}/{label}"] = sha(path.read_bytes())
            hashes.update(trace_hashes(f"{name}/train_trace", train / "trace.jsonl"))
            hashes.update(trace_hashes(f"{name}/eval_trace", ev / "trace.jsonl"))

    desk = tree / "configs" / "desk.cfg"
    for algo in ("exhaustive", "random"):
        ev = work / "desk" / algo / "eval"
        cli("evaluate", "--config", desk, "--algo", algo, "--episodes", 2,
            "--out", ev, "--trace", ev / "trace.jsonl")
        hashes[f"desk/{algo}/steps"] = sha((ev / "steps.csv").read_bytes())
        hashes[f"desk/{algo}/report"] = sha((ev / "report.json").read_bytes())
        hashes.update(trace_hashes(f"desk/{algo}/eval_trace", ev / "trace.jsonl"))

    bench = work / "desk" / "benchmark"
    cli("benchmark", "--config", desk, "--algos", "random,exhaustive,hdrl", "--train-episodes", 2,
        "--sweep", "local_power", "--out", bench)
    hashes["desk/benchmark/sweep"] = sha((bench / "sweep.csv").read_bytes())
    hashes["desk/benchmark/benchmark_without_time"] = sha(without_time(bench / "benchmark.csv"))
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT), help="source tree (default: this one)")
    parser.add_argument("--against", metavar="OTHER", help="print only the outputs that differ from OTHER's")
    args = parser.parse_args(argv)
    trees = [args.tree] if args.against is None else [args.against, args.tree]
    runs = []
    for tree in trees:
        with tempfile.TemporaryDirectory(prefix="output-hashes-") as work:
            runs.append(output_hashes(Path(tree).resolve(), Path(work)))
    if args.against is None:
        print(json.dumps(runs[0], indent=1))
        return 0
    other, mine = runs
    differ = [name for name in {**other, **mine} if other.get(name) != mine.get(name)]
    for name in differ:
        print(f"{name}: {other.get(name, '-')} -> {mine.get(name, '-')}")
    print(f"{len(differ)} of {len(mine)} outputs differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
