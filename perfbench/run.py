"""Speed benchmark of the specshare simulator, with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-hdrl-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop: one agent steps one environment, and the
next call starts when the previous one returns.  The benchmark drives the
simulator only through ``load_config``, ``SpectrumSharingEnv``,
``make_agent``, ``agents.train`` and ``agents.evaluate``, and times
``env.step`` and the hdrl agent's ``act`` by wrapping them on the instance.

With ``--trace 0`` the run measures for ``--seconds`` and the last line of
standard output is one JSON object with the end-to-end metrics, timings in
reference-speed time (``hostspeed.py``).  With
``--trace 1`` the workload runs a fixed number of rounds (so call counts
repeat for a seed and run length) with every layer in ``tracing.TRACED``
wrapped, and the object carries per-layer self times and call counts.  A
fuller record of each run goes to ``perfbench/out/``.  README.md says what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from tracing import NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# setup is repeated this many times per run and its median reported
SETUP_REPS = 15
# reference-kernel samples taken before each setup repetition
SETUP_SPEED_SAMPLES = 9
# eval-hdrl-r128 checks every n-th step; the desk workloads check every step
R128_CHECK_EVERY = 10
# hdrl trains in blocks of 6 episodes, a whole number of every tier's update period
TRAIN_BLOCK = 6
AGENT_ORDER = ("random", "exhaustive", "sadrl", "madrl", "hdrl")
R128 = {"haps_per_beam": 8, "regions_per_hap": 8, "steps_per_episode": 50}

clock = time.perf_counter


def blas_info() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


class Probe:
    """Times env.step and hdrl act calls, and checks the outputs of checked steps.

    With a ``HostSpeed`` it also samples the host's speed after steps.  The
    checks and the samples run outside the per-call timing, and their time
    (``excluded_s``) is left out of the timed phase.  ``mark`` records the
    clock and ``excluded_s`` at each step end and round end, so the timed
    phase can be cut into intervals and each scaled by the speed it ran at.
    """

    def __init__(self, check_every: int, speed: HostSpeed | None):
        self.check_every = check_every
        self.speed = speed
        self.step_s = array("d")
        self.step_at = array("d")
        self.decide_s = array("d")
        self.decide_at = array("d")
        self.marks = array("d")  # clock, excluded_s, clock, excluded_s, ...
        self.excluded_s = 0.0
        self.steps = 0
        self.failed = 0
        self.wrong = 0  # steps whose output failed a check
        self.errors: list[str] = []

    def watch_env(self, env, extra=None) -> None:
        """Time every step; check every ``check_every``-th, outside the timing.

        ``extra(env, metrics)`` adds the workload's own checks.
        """
        inner, cfg = env.step, env.cfg

        def step(actions):
            t0 = clock()
            out = inner(actions)
            t1 = clock()
            self.step_s.append(t1 - t0)
            self.step_at.append(t1)
            self.mark(t1)
            self.steps += 1
            if self.steps % self.check_every == 0:
                c0 = clock()
                state, metrics = env.state, out[4]
                try:
                    checks.check_allocation(cfg, state.alloc)
                    checks.check_rates(cfg, state.snapshot.gains, state.alloc, metrics.user_rates, metrics.eta)
                    checks.check_metrics(cfg, metrics)
                    if extra is not None:
                        extra(env, metrics)
                except checks.CheckFailed as exc:
                    self.failed += 1
                    self.wrong += 1
                    self.errors.append(f"step {self.steps}: {exc}")
                self.excluded_s += clock() - c0
            if self.speed is not None:
                self.excluded_s += self.speed.maybe_sample()
            return out

        env.step = step

    def watch_act(self, agent) -> None:
        inner = agent.act

        def act(obs, t, explore=True):
            t0 = clock()
            out = inner(obs, t, explore)
            t1 = clock()
            self.decide_s.append(t1 - t0)
            self.decide_at.append(t1)
            return out

        agent.act = act

    def mark(self, now: float) -> None:
        self.marks.extend((now, self.excluded_s))

    def scaled_seconds(self) -> float:
        """The timed phase in reference-speed seconds: each interval between marks scaled."""
        wall, excluded = np.asarray(self.marks).reshape(-1, 2).T
        spans = np.diff(wall) - np.diff(excluded)
        return float(self.speed.scaled(spans, wall[1:]).sum())


# -- workloads: each wires the probe to its pairs and returns (one_round, final_checks)


def train_hdrl_desk(sc, probe, pairs, result):
    (env, hdrl), = pairs
    cfg = env.cfg
    probe.watch_env(env, check_frozen)
    tier_of = {id(hdrl.net_g): "global", id(hdrl.net_r): "regional", id(hdrl.net_l): "local"}
    counted = {"local": 0, "regional": 0, "global": 0}
    ppo_update = sc.ppo.ppo_update

    def counting_update(net, *args, **kwargs):
        counted[tier_of[id(net)]] += 1
        return ppo_update(net, *args, **kwargs)

    # hdrl imports ppo_update from the ppo module when it updates
    sc.ppo.ppo_update = counting_update
    episodes = [0]

    def one_round(i):
        sc.agents.train(hdrl, env, episodes=TRAIN_BLOCK)
        episodes[0] += TRAIN_BLOCK

    def final_checks():
        result.update(episodes=episodes[0], updates=counted)
        checks.check_updates(cfg, episodes[0], counted, hdrl.updates)
        checks.check_finite_params(hdrl.net_dict())

    return one_round, final_checks


def eval_hdrl_r128(sc, probe, pairs, result):
    (env, hdrl), = pairs
    cfg = env.cfg
    ratio, served = [0.0, 0], [0]

    def extra(env, metrics):
        total, count = checks.gain_ratio_sum(
            cfg, env.state.snapshot.gains, env.state.tx_positions, env.topology.user_positions
        )
        ratio[0] += total
        ratio[1] += count
        served[0] += int((metrics.user_rates > 0).sum())

    probe.watch_env(env, extra)

    def one_round(i):
        sc.agents.evaluate(hdrl, env, episodes=1, eval_seed_base=i)

    def final_checks():
        result["gain_ratio_mean"] = checks.check_gain_ratio(*ratio)
        result["served_user_steps"] = checks.check_served(served[0])

    return one_round, final_checks


def compare_desk(sc, probe, pairs, result):
    ex_env, ex_agent = pairs[AGENT_ORDER.index("exhaustive")]
    step_eta: list[float] = []

    def exhaustive_extra(env, metrics):
        check_frozen(env, metrics)
        step_eta.append(metrics.eta)

    for env, _ in pairs:
        probe.watch_env(env, exhaustive_extra if env is ex_env else check_frozen)

    def one_round(i):
        for env, agent in pairs:
            sc.agents.evaluate(agent, env, episodes=1, eval_seed_base=i)

    def final_checks():
        home = np.stack([n.position for n in ex_env.topology.transmitters()])
        best, count, worst = checks.check_exhaustive(
            ex_env.cfg, home, ex_env.topology.user_positions, ex_agent.solution["eta"], step_eta
        )
        result.update(optimum_eta=best, candidates=count, exhaustive_step_eta_max_dev=worst)

    return one_round, final_checks


def check_frozen(env, metrics) -> None:
    state = env.state
    checks.check_frozen_gains(env.cfg, state.snapshot.gains, state.tx_positions, env.topology.user_positions)


# name: wiring, config file, overrides, agent kinds (one env each, hdrl
# last), steps per round, tail percentile of env.step and hdrl act, nominal
# seconds per round (the traced run does round(seconds / nominal) rounds)
WORKLOADS = {
    "train-hdrl-desk": (train_hdrl_desk, "configs/desk.cfg", {}, ("hdrl",), 100 * TRAIN_BLOCK, 95.0, 1.6),
    "eval-hdrl-r128": (eval_hdrl_r128, "configs/default.cfg", R128, ("hdrl",), 50, 95.0, 3.0),
    "compare-desk": (compare_desk, "configs/desk.cfg", {}, AGENT_ORDER, 500, 95.0, 1.2),
}


def tail(samples, pct: float, what: str) -> float:
    beyond = len(samples) * (100.0 - pct) / 100.0
    if beyond < 10:
        raise RuntimeError(f"{len(samples)} {what} samples leave {beyond:.1f} beyond p{pct:g}; need 10")
    return float(np.percentile(samples, pct)) * 1e3


def p50_ms(samples) -> float:
    return float(np.median(samples)) * 1e3


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import specshare as sc

    wire, cfg_file, overrides, kinds, steps_per_round, pct, nominal = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(sc)

    def build():
        pairs = []
        for kind in kinds:
            cfg = sc.config.load_config(ROOT / cfg_file)
            cfg.seed = seed
            for key, value in overrides.items():
                setattr(cfg, key, value)
            env = sc.env.SpectrumSharingEnv(cfg)
            agent = sc.agents.make_agent(kind, cfg)
            env.reset()
            pairs.append((env, agent))
        return pairs

    # the 128-region step is large-array work; the desk steps are many tiny calls
    speed = None if trace else HostSpeed("large" if name == "eval-hdrl-r128" else "small")
    setup_s, setup_factor = [], []
    for _ in range(SETUP_REPS):
        if speed is not None:
            for _ in range(SETUP_SPEED_SAMPLES):
                speed.sample()
            setup_factor.append(float(speed.factor([clock()])[0]))
        t0 = clock()
        pairs = build()
        setup_s.append(clock() - t0)

    probe = Probe(R128_CHECK_EVERY if name == "eval-hdrl-r128" else 1, speed)
    probe.watch_act(pairs[-1][1])
    result: dict = {}
    one_round, final_checks = wire(sc, probe, pairs, result)

    rounds = 0
    target = max(1, round(seconds / nominal))
    t_start = clock()
    probe.mark(t_start)
    while rounds < target if trace else clock() - t_start - probe.excluded_s < seconds:
        done = probe.steps
        try:
            one_round(rounds)
        except Exception:  # a raising step fails the rest of its round
            traceback.print_exc(file=sys.stderr)
            probe.failed += steps_per_round - (probe.steps - done)
            probe.errors.append(traceback.format_exc(limit=1))
        rounds += 1
        probe.mark(clock())
    measured = clock() - t_start - probe.excluded_s

    correct = probe.wrong == 0
    try:
        final_checks()
    except Exception:  # a check failed, or the run left nothing to check
        correct = False
        probe.errors.append(traceback.format_exc(limit=1))

    steps_per_s = probe.steps / measured
    if tracer:
        summary = tracer.summary()
        tracer.uninstall()
        metrics = {}
        for f in NAMES:
            metrics[f"{f}.self_s"] = {"value": summary["functions"][f]["self_s"], "unit": "s"}
            metrics[f"{f}.calls"] = {"value": summary["functions"][f]["calls"], "unit": "count"}
        result["trace"] = summary
    else:
        # every timing in reference-speed time (hostspeed.py); wall-clock figures go to the details
        step_s = speed.scaled(probe.step_s, probe.step_at)
        decide_s = speed.scaled(probe.decide_s, probe.decide_at)
        metrics = {
            "setup_s": (float(np.median(np.divide(setup_s, setup_factor))), "s"),
            "steps_per_s": (probe.steps / probe.scaled_seconds(), "steps/s"),
            "env_step_ms_p50": (p50_ms(step_s), "ms"),
            "env_step_ms_tail": (tail(step_s, pct, "env.step"), "ms"),
            "decide_ms_p50": (p50_ms(decide_s), "ms"),
            "decide_ms_tail": (tail(decide_s, pct, "hdrl act"), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["wall_clock"] = {
            "setup_s": float(np.median(setup_s)),
            "steps_per_s": steps_per_s,
            "env_step_ms_p50": p50_ms(probe.step_s),
            "env_step_ms_tail": tail(probe.step_s, pct, "env.step"),
            "decide_ms_p50": p50_ms(probe.decide_s),
            "decide_ms_tail": tail(probe.decide_s, pct, "hdrl act"),
        }
        result["host_speed"] = {
            "samples": len(speed.took),
            "kernel_ms_p10_p50_p90": [float(v) * 1e3 for v in np.percentile(speed.took, [10, 50, 90])],
            "setup_factors": setup_factor,
        }

    line = {
        "correct": correct,
        "attempted": rounds * steps_per_round,
        "failed": probe.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": rounds,
        "measured_s": measured,
        "excluded_s": probe.excluded_s,
        "steps_per_s": steps_per_s,
        "setup_s_each": setup_s,
        "tail_percentile": pct,
        "env_step_samples": len(probe.step_s),
        "decide_samples": len(probe.decide_s),
        "errors": probe.errors[:20],
        "blas": blas_info(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **result,
    }
    return line, detail


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    lines = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **lines[name]}))
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specshare").is_dir():
        print(f"no simulator source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({k: v for k, v in detail.items() if k != "trace"}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
