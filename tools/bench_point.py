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
versions that ``perfbench/run.py`` reports, the line count of ``src/``, and
``calls_per_step``: for each agent kind, cProfile's count of function
calls over one seeded desk episode of ``act`` and ``env.step`` (learned
kinds exploring, after one unprofiled warm-up episode), divided by its
steps.  ``calls_per_env_step`` counts ``env.step`` alone in the same way:
the profiled episode's actions replayed on the env reset to the same seed,
so a BENCH file separates the step's calls from the agent's.
``calls_per_step_r16`` is the same count as ``calls_per_step`` for hdrl on
a 16-region scenario (``default.cfg`` with 8 HAPs per beam, one region per
HAP and 50-step episodes), where an exploring decision's per-batch cost
shows at scale.  ``calls_per_minibatch_step`` counts hdrl's first
local-tier ``ppo_update`` on desk (after one exploring episode of criterion
1's loop fills its batch) in the same way, divided by its minibatch steps.
The counts do not depend on the host's speed; each is measured twice in
subprocesses on the tree's ``src/``, before the timed runs, and the two must
agree.

With ``--against TREE FILE`` the same runs are made on a second checkout and
written to FILE; the two trees alternate run by run, and which goes first
alternates by seed, so that both see the host in the same states.  Then it
prints, per metric, both medians, the other tree's quartiles and the number
of seeds on which this tree did better.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 5
# default.cfg's scenario at 16 regions: 2 beams x 8 HAPs x 1 region
R16 = {"haps_per_beam": 8, "regions_per_hap": 1, "steps_per_episode": 50}


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def _calls(profiler, steps: int) -> float:
    # one entry per code object: pstats keys by (file, line, name) and so
    # drops all but one of the dataclass __init__s, every one <string>:2
    return sum(e.callcount for e in profiler.getstats()) / steps


def print_calls_per_step(config: str, kinds=None, overrides=None) -> None:
    """Print ``{"step": {kind: calls per step}, "env": {kind: calls per
    env.step}}`` as JSON for the ``specshare`` first on ``sys.path``, on
    ``config`` with ``overrides`` set, for ``kinds`` (default: that
    package's ``AGENT_KINDS``): each kind runs one warm-up episode of
    criterion 1's loop, then one profiled episode of ``act`` (exploring) and
    ``env.step``, then that episode's steps again, alone and profiled, on
    the env reset to the same seed."""
    import cProfile

    from specshare.agents import AGENT_KINDS, make_agent
    from specshare.config import load_config
    from specshare.env import SpectrumSharingEnv

    cfg = load_config(config)
    for key, value in (overrides or {}).items():
        setattr(cfg, key, value)
    cfg.validate()
    counts, env_counts = {}, {}
    for kind in kinds or AGENT_KINDS:
        env, agent = SpectrumSharingEnv(cfg), make_agent(kind, cfg)
        obs = env.reset(seed=1)
        agent.begin_episode(env)
        for t in range(cfg.steps_per_episode):
            obs, rewards, _, _, _ = env.step(agent.act(obs, t, explore=True))
            agent.record(rewards)
        agent.end_episode()
        obs = env.reset(seed=2)
        agent.begin_episode(env)
        act, step = agent.act, env.step
        # filled by index: a list.append would count as one more call per step
        actions = [None] * cfg.steps_per_episode
        profiler = cProfile.Profile()
        profiler.enable()
        for t in range(cfg.steps_per_episode):
            actions[t] = act(obs, t, True)
            obs = step(actions[t])[0]
        profiler.disable()
        counts[kind] = _calls(profiler, cfg.steps_per_episode)
        env.reset(seed=2)
        profiler = cProfile.Profile()
        profiler.enable()
        for action in actions:
            step(action)
        profiler.disable()
        env_counts[kind] = _calls(profiler, cfg.steps_per_episode)
    print(json.dumps({"step": counts, "env": env_counts}))


def print_calls_per_minibatch_step(config: str) -> None:
    """Print ``{"hdrl_local": calls per minibatch step}`` as JSON for the
    ``specshare`` first on ``sys.path``: cProfile's count of calls of hdrl's
    first local-tier ``ppo_update`` on ``config``, divided by its minibatch
    steps, with exploring episodes of criterion 1's loop run until it
    updates."""
    import cProfile

    from specshare import ppo
    from specshare.agents import make_agent
    from specshare.config import load_config
    from specshare.env import SpectrumSharingEnv

    cfg = load_config(config)
    env, agent = SpectrumSharingEnv(cfg), make_agent("hdrl", cfg)
    update, counts = ppo.ppo_update, []

    def profiled(net, *args, **kwargs):
        if net is not agent.net_l or counts:
            return update(net, *args, **kwargs)
        profiler = cProfile.Profile()
        profiler.enable()
        report = update(net, *args, **kwargs)
        profiler.disable()
        counts.append(_calls(profiler, report.grad_steps))
        return report

    ppo.ppo_update = profiled  # the slots look it up on the module when they update
    seed = 1
    while not counts:
        obs = env.reset(seed=seed)
        agent.begin_episode(env)
        for t in range(cfg.steps_per_episode):
            obs, rewards, _, _, _ = env.step(agent.act(obs, t, explore=True))
            agent.record(rewards)
        agent.end_episode()
        seed += 1
    print(json.dumps({"hdrl_local": counts[0]}))


def _measured_twice(tree: Path, call: str) -> dict:
    """The JSON that ``bench_point.<call>`` prints, run in a subprocess on
    ``tree/src`` twice; exits naming each entry on which the two runs differ."""
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]; "
            f"import bench_point; bench_point.{call}")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-c", code]
    runs = [json.loads(subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout)
            for _ in range(2)]
    if runs[0] != runs[1]:
        sys.exit(f"{tree}: {call} differs between two runs: {runs[0]} and {runs[1]}")
    return runs[0]


def calls_per_step(tree: Path, config: str = "desk", kinds=None, overrides=None) -> dict:
    """``print_calls_per_step`` on ``configs/<config>.cfg``, twice in
    subprocesses on ``tree/src``; ``kinds`` defaults to the agent kinds of
    that tree's package."""
    cfg = str(tree / "configs" / f"{config}.cfg")
    return _measured_twice(tree, f"print_calls_per_step({cfg!r}, {kinds!r}, {overrides!r})")


def all_calls_per_step(tree: Path) -> dict:
    """The four call-count fields of a BENCH file: every kind on desk, with
    and without its ``act``, hdrl on 16 regions, and hdrl's local-tier PPO
    update on desk."""
    desk = calls_per_step(tree)
    desk_cfg = str(tree / "configs" / "desk.cfg")
    return {
        "calls_per_step": desk["step"],
        "calls_per_env_step": desk["env"],
        "calls_per_step_r16": calls_per_step(tree, "default", ("hdrl",), R16)["step"],
        "calls_per_minibatch_step": _measured_twice(tree, f"print_calls_per_minibatch_step({desk_cfg!r})"),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: its result line and its details line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    detail, line = (json.loads(s) for s in proc.stdout.strip().splitlines()[-2:])
    return line, detail


def summarize(tree: Path, seconds: float, seeds: list[int], runs: dict, calls: dict) -> dict:
    """The BENCH document for one tree from ``runs[workload] = [(line,
    detail), ...]`` and its ``all_calls_per_step``."""
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
        **calls,
        "workloads": workloads,
    }


def compare(mine: dict, other: dict, better: dict) -> None:
    for field in ("calls_per_step", "calls_per_env_step", "calls_per_step_r16", "calls_per_minibatch_step"):
        for kind, calls in mine[field].items():
            print(f"{field:24s} {kind:15s} {other[field][kind]:10.4g} -> {calls:10.4g}")
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
    calls = [all_calls_per_step(tree) for tree, _ in trees]
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
    docs = [summarize(tree, seconds, seeds, r, c) for (tree, _), r, c in zip(trees, runs, calls)]
    for (_, out), doc in zip(trees, docs):
        out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.against:
        compare(docs[0], docs[1], {m["name"]: m["better"] for m in bench["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
