"""Command-line harness: train, evaluate, benchmark, and replay runs.

Every run writes a ``manifest.json`` into the output directory before any
work starts, listing the config snapshot, seeds, agent kinds, and the
files the run will produce.  Metric files (CSV/JSON) carry no wall-clock
data so repeat runs are byte-identical; timing lives in ``timing.json``.

Logging verbosity comes from the environment variable SPECSHARE_LOG
(error | info | debug); it writes to stderr and never touches outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .agents import (
    AGENT_KINDS,
    SearchRefusedError,
    evaluate,
    make_agent,
    train,
)
from .allocation import ALLOCATION_ARRAYS, AllocationState, validate
from .channel import compute_snapshot
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config
from .env import SpectrumSharingEnv
from .metrics import compute_step_metrics
from .topology import build_topology

log = logging.getLogger("specshare")

TRAINABLE = ("sadrl", "madrl", "hdrl")

BENCHMARK_COLUMNS = (
    "algo",
    "seed",
    "status",
    "decision_time_s_per_episode",
    "eta_bps_per_hz",
    "throughput_bps",
    "cumulative_reward",
    "spectrum_utilization_frac",
)

STEPS_COLUMNS = ("step", "throughput_bps", "eta", "fairness", "episode", "seed")

SWEEP_COLUMNS = ("algo", "alpha_scale", "local_power_dbm", "sum_rate_bps_per_hz")

TRAIN_LOG_COLUMNS = ("episode", "cumulative_reward", "eta", "fairness", "r_avg")


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("SPECSHARE_LOG", "info").lower()
    logging.basicConfig(
        level=levels.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _write_manifest(out: Path, cfg: ScenarioConfig, seeds, algos, outputs) -> None:
    manifest = {
        "agents": list(algos),
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "out_dir": str(out),
        "outputs": list(outputs),
        "seeds": list(seeds),
        "version": __version__,
    }
    _write_json(out / "manifest.json", manifest)


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_cfg(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "episodes", None) is not None:
        cfg.episodes = args.episodes
    cfg.validate()
    return cfg


def _parse_seeds(args, cfg: ScenarioConfig) -> list[int]:
    if getattr(args, "seeds", None):
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        # every seed is checked here, before any output is written
        for seed in seeds:
            if seed < 0:
                raise ConfigError(f"seed must be >= 0, got {seed}")
            if seeds.count(seed) > 1:
                raise ConfigError(f"seed {seed} is listed more than once")
        return seeds
    if getattr(args, "seed", None) is not None:
        return [args.seed]
    return [cfg.seed]


def _reseeded(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    data = cfg.to_dict()
    data["seed"] = seed
    return config_from_dict(data)


# -- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.algo not in TRAINABLE:
        log.error("agent kind %r is not trainable (choose from %s)", args.algo, TRAINABLE)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, [cfg.seed], [args.algo], ["train_log.csv", "checkpoint.json"])

    env = SpectrumSharingEnv(cfg, trace_path=args.trace)
    agent = make_agent(args.algo, cfg)
    log.info("training %s for %d episodes (seed %d)", args.algo, cfg.episodes, cfg.seed)
    t0 = time.perf_counter()
    rows = train(
        agent,
        env,
        episodes=cfg.episodes,
        on_episode=lambda row: log.debug(
            "episode %d: reward %.4f eta %.4f", row["episode"], row["cumulative_reward"], row["eta"]
        ),
    )
    log.info("trained in %.1f s (%d updates)", time.perf_counter() - t0, agent.updates)
    _write_csv(
        out / "train_log.csv",
        TRAIN_LOG_COLUMNS,
        [[r[k] for k in TRAIN_LOG_COLUMNS] for r in rows],
    )
    agent.save(out / "checkpoint.json")
    env.close()
    return 0


# -- evaluate ---------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    seeds = _parse_seeds(args, cfg)
    episodes = args.episodes if args.episodes is not None else 1
    if args.algo in TRAINABLE and not args.checkpoint:
        log.error("checkpoint required for learnable agent %r", args.algo)
        return 1
    if args.algo not in TRAINABLE and args.checkpoint:
        log.error("agent kind %r has no weights to load from a checkpoint", args.algo)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, seeds, [args.algo], ["steps.csv", "report.json", "timing.json"])

    step_rows = []
    per_seed = {}
    timing = {}
    pooled: dict[str, list] = {"eta": [], "throughput": [], "fairness": [], "reward": []}
    for seed in seeds:
        cfg_s = _reseeded(cfg, seed)
        agent = make_agent(args.algo, cfg_s)
        if args.checkpoint:
            agent.load(args.checkpoint)
        trace_path = args.trace
        if trace_path and len(seeds) > 1:
            # one trace file per seed; a shared path would be overwritten
            p = Path(trace_path)
            trace_path = p.with_name(f"{p.stem}.seed{seed}{p.suffix}")
            log.info("writing trace for seed %d to %s", seed, trace_path)
        env = SpectrumSharingEnv(cfg_s, trace_path=trace_path)
        result = evaluate(agent, env, episodes=episodes)
        env.close()
        for row in result["steps"]:
            step_rows.append(
                [row["step"], row["throughput_bps"], row["eta"], row["fairness"], row["episode"], seed]
            )
        per_seed[str(seed)] = {
            "cumulative_reward_mean": result["cumulative_reward_mean"],
            "eta_mean": result["eta_mean"],
            "fairness_mean": result["fairness_mean"],
            "spectrum_utilization_mean": result["spectrum_utilization_mean"],
            "throughput_mean": result["throughput_mean"],
        }
        timing[str(seed)] = {
            "decision_time_s": result["decision_time_s"],
            "decision_time_mean_s": float(np.mean(result["decision_time_s"])),
        }
        for ep in result["episodes"]:
            pooled["eta"].append(ep["eta"])
            pooled["throughput"].append(ep["r_avg"])
            pooled["fairness"].append(ep["fairness"])
            pooled["reward"].append(ep["cumulative_reward"])

    report = {
        "algo": args.algo,
        "config_hash": cfg.config_hash(),
        "episodes_per_seed": episodes,
        "per_seed": per_seed,
        "pooled": {
            "cumulative_reward_mean": float(np.mean(pooled["reward"])),
            "cumulative_reward_std": float(np.std(pooled["reward"])),
            "eta_mean": float(np.mean(pooled["eta"])),
            "eta_std": float(np.std(pooled["eta"])),
            "fairness_mean": float(np.mean(pooled["fairness"])),
            "fairness_std": float(np.std(pooled["fairness"])),
            "throughput_mean": float(np.mean(pooled["throughput"])),
            "throughput_std": float(np.std(pooled["throughput"])),
        },
        "seeds": seeds,
    }
    _write_csv(out / "steps.csv", STEPS_COLUMNS, step_rows)
    _write_json(out / "report.json", report)
    _write_json(out / "timing.json", timing)
    log.info(
        "evaluated %s: eta %.4f bps/Hz, throughput %.1f bps",
        args.algo,
        report["pooled"]["eta_mean"],
        report["pooled"]["throughput_mean"],
    )
    return 0


# -- benchmark --------------------------------------------------------------------


def _trained_agent(algo: str, cfg: ScenarioConfig, episodes: int):
    """A new agent, trained for ``episodes`` on its own env when it learns."""
    agent = make_agent(algo, cfg)
    if episodes > 0 and agent.trainable:
        env = SpectrumSharingEnv(cfg)
        train(agent, env, episodes=episodes)
        env.close()
    return agent


def _sweep_local_power(cfg: ScenarioConfig, algo: str, scales, train_episodes: int, agent) -> list[list]:
    """One greedy episode per power scale, every local power fraction the
    agent picks scaled by it; returns sweep table rows.  Every scale rates
    one learned agent's weights: ``agent``, the benchmark row's at
    ``cfg.seed`` (greedy evaluation left them as trained), or when that is
    None one trained here as the rows' are.  The others are built afresh
    per scale, so each scale sees the same draws."""
    rows = []
    for scale in scales:
        if agent is None or not agent.trainable:
            agent = _trained_agent(algo, cfg, train_episodes)
        env = SpectrumSharingEnv(cfg)
        obs = env.reset(seed=100_000)
        agent.begin_episode(env)
        power_w = env.topology.tx_power_w
        eta_sum = 0.0
        used_w_sum = 0.0
        for t in range(cfg.steps_per_episode):
            bundle = agent.act(obs, t, explore=False)
            alpha = np.asarray(bundle["local"]["alpha"], dtype=float) * scale
            # new dicts: an agent may hand out the same bundle again next step
            obs, _, _, _, metrics = env.step({**bundle, "local": {**bundle["local"], "alpha": alpha}})
            alloc = env.state.alloc
            used = alloc.beta * alloc.alpha  # post-clamp fractions actually spent
            used_w_sum += float((used.sum(axis=1) * power_w).mean())
            eta_sum += metrics.eta
        env.close()
        steps = cfg.steps_per_episode
        mean_w = used_w_sum / steps
        power_dbm = 10.0 * np.log10(max(mean_w, 1e-30) * 1000.0)
        rows.append([algo, scale, float(power_dbm), eta_sum / steps])
    return rows


def cmd_benchmark(args) -> int:
    cfg = _load_cfg(args)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in AGENT_KINDS:
            log.error("unknown agent kind %r (choose from %s)", algo, AGENT_KINDS)
            return 1
    seeds = _parse_seeds(args, cfg)
    episodes = args.episodes if args.episodes is not None else 3
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["benchmark.csv", "speedup.json"]
    if args.sweep:
        outputs.append("sweep.csv")
    _write_manifest(out, cfg, seeds, algos, outputs)

    rows = []
    times: dict[str, list[float]] = {}
    own_seed_agents = {}  # the sweep runs at cfg.seed and reuses these
    for algo in algos:
        ok_rows = []
        for seed in seeds:
            cfg_s = _reseeded(cfg, seed)
            agent = _trained_agent(algo, cfg_s, args.train_episodes)
            if seed == cfg.seed:
                own_seed_agents[algo] = agent
            env = SpectrumSharingEnv(cfg_s)
            # an exhaustive search the scenario cannot run raises from begin_episode
            try:
                result = evaluate(agent, env, episodes=episodes)
            except SearchRefusedError as exc:
                log.info("skipping %s at seed %d: %s", algo, seed, exc)
                rows.append([algo, seed, "skipped"] + [""] * (len(BENCHMARK_COLUMNS) - 3))
                env.close()
                continue
            env.close()
            mean_time = float(np.mean(result["decision_time_s"]))
            row = [
                algo,
                seed,
                "ok",
                mean_time,
                result["eta_mean"],
                result["throughput_mean"],
                result["cumulative_reward_mean"],
                result["spectrum_utilization_mean"],
            ]
            rows.append(row)
            ok_rows.append(row)
        if ok_rows:
            values = np.array([r[3:] for r in ok_rows], dtype=float)
            mean = values.mean(axis=0)
            rows.append([algo, "mean", "ok", *[float(v) for v in mean]])
            if len(ok_rows) >= 3:  # std needs at least 3 seeds to mean anything
                std = values.std(axis=0)
                rows.append([algo, "std", "ok", *[float(v) for v in std]])
            times[algo] = [float(r[3]) for r in ok_rows]

    _write_csv(out / "benchmark.csv", BENCHMARK_COLUMNS, rows)

    ratios = {}
    for a in times:
        for b in times:
            if a != b:
                ratios[f"{a}/{b}"] = float(np.mean(times[a]) / np.mean(times[b]))
    _write_json(
        out / "speedup.json",
        {
            "decision_time_ratios": ratios,
            "timing": "mean per-episode agent decision time, seconds; environment physics excluded",
        },
    )

    if args.sweep:
        scales = [0.2, 0.4, 0.6, 0.8, 1.0]
        sweep_rows = []
        for algo in algos:
            try:
                sweep_rows.extend(
                    _sweep_local_power(cfg, algo, scales, args.train_episodes, own_seed_agents.get(algo))
                )
            except SearchRefusedError as exc:
                log.info("skipping %s in the sweep: %s", algo, exc)
        _write_csv(out / "sweep.csv", SWEEP_COLUMNS, sweep_rows)

    log.info("benchmark complete: %d rows over %d algos", len(rows), len(algos))
    return 0


# -- replay -----------------------------------------------------------------------

# the fields replay reads from each kind of trace line
_TRACE_FIELDS = {"header": ("config",), "step": ("allocation", "tx_positions", "gains", "metrics")}


def _unreadable(ln: dict) -> str | None:
    """What replay cannot read in trace line ``ln``, or None."""
    kind = ln.get("type")
    missing = [key for key in _TRACE_FIELDS.get(kind, ()) if key not in ln]
    if missing:
        return f"has no {missing[0]!r} field"
    if kind != "step":
        return None
    for table in ("allocation", "metrics"):
        if not isinstance(ln[table], dict):
            return f"has a non-object {table!r} field"
    missing = [key for key, _, _, _ in ALLOCATION_ARRAYS if key not in ln["allocation"]]
    if missing:
        return f"has no {missing[0]!r} in its 'allocation'"
    return None


def _misshapen(ln: dict, cfg: ScenarioConfig) -> str | None:
    """Which array of step line ``ln`` does not read with the dtype and shape
    ``cfg`` implies, or None: the allocation arrays as ``ALLOCATION_ARRAYS``
    gives them, then the transmitter positions and the gains.  An integer
    array's entries must be integral: its cast would truncate 1.9 to 1.  The
    positions and gains must be finite: a NaN UAV compares as inside its
    region, so the recomputed metrics would not show it."""
    t = cfg.num_transmitters
    arrays = []
    for key, _, dtype, shape in ALLOCATION_ARRAYS:
        arrays.append((f"allocation.{key}", ln["allocation"][key], dtype, shape(cfg)))
    arrays.append(("tx_positions", ln["tx_positions"], float, (t, 3)))
    arrays.append(("gains", ln["gains"], float, (t, cfg.num_users)))
    for field, value, dtype, shape in arrays:
        try:
            got = np.asarray(value, dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            return f"has an unreadable {field!r}: {exc}"
        if got.shape != shape:
            return f"has {field!r} of shape {got.shape}, expected {shape}"
        if got.dtype.kind == "i":
            exact = np.asarray(value, dtype=float)
            bad, what = got != exact, "non-integral"
        elif field in ("tx_positions", "gains"):  # a NaN alpha or dp is validate's to name
            exact = got
            bad, what = ~np.isfinite(got), "non-finite"
        else:
            continue
        off = np.argwhere(bad)
        if off.size:
            at = tuple(off[0].tolist())
            return f"has a {what} {field!r} entry {exact[at]} at {at}"
    return None


def cmd_replay(args) -> int:
    path = Path(args.trace)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        log.error("malformed trace %s: %s", path, exc)
        return 1
    if not lines:
        log.error("empty trace: %s", path)
        return 1
    objects = [isinstance(ln, dict) for ln in lines]
    if not all(objects):
        log.error("malformed trace: line %d is not a JSON object", objects.index(False) + 1)
        return 1
    header = lines[0]
    if header.get("type") != "header":
        log.error("malformed trace: first line must be a header with a config snapshot")
        return 1
    for line_no, ln in enumerate(lines, start=1):
        problem = _unreadable(ln)
        if problem:
            log.error("malformed trace: line %d %s", line_no, problem)
            return 1
        if ln.get("type") == "header" and ln["config"] != header["config"]:
            log.error("malformed trace: episodes with different configs in one file")
            return 1
    steps = [(i + 1, ln) for i, ln in enumerate(lines) if ln.get("type") == "step"]
    if not steps:
        log.error("trace contains no steps: %s", path)
        return 1

    try:
        cfg = config_from_dict(header["config"])
    except ConfigError as exc:
        log.error("malformed trace: the header's config on line 1: %s", exc)
        return 1
    topo = build_topology(cfg, np.random.default_rng(cfg.seed))

    worst = 0.0
    worst_line = None
    worst_field = None
    for line_no, entry in steps:
        problem = _misshapen(entry, cfg)
        if problem:
            log.error("malformed trace: line %d %s", line_no, problem)
            return 1
        alloc = AllocationState.from_dict(entry["allocation"])
        violation = validate(alloc, cfg)
        if violation is not None:
            log.error("malformed trace: line %d has an infeasible allocation: %s", line_no, violation)
            return 1
        tx_positions = np.asarray(entry["tx_positions"], dtype=float)
        gains = np.asarray(entry["gains"], dtype=float)
        snap = compute_snapshot(topo, alloc, tx_positions, gains=gains)
        metrics = compute_step_metrics(topo, alloc, snap, tx_positions)
        recomputed = metrics.to_dict()
        for field, value in entry["metrics"].items():
            if field not in recomputed:
                log.error("malformed trace: line %d has an unknown metric %r", line_no, field)
                return 1
            b = np.asarray(recomputed[field], dtype=float)
            try:
                a = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                log.error("malformed trace: line %d has an unreadable metric %r: %s", line_no, field, exc)
                return 1
            if a.shape != b.shape:
                log.error(
                    "malformed trace: line %d has metric %r of shape %s, expected %s",
                    line_no, field, a.shape, b.shape,
                )
                return 1
            dev = float(np.max(np.abs(a - b))) if a.size else 0.0
            if np.isnan(dev):
                dev = np.inf  # a NaN on either side counts as the largest deviation
            if dev > worst:
                worst, worst_line, worst_field = dev, line_no, field
    print(f"replayed {len(steps)} steps; max absolute deviation {worst}")
    if worst > 0:
        print(f"largest deviation at trace line {worst_line}, field {worst_field!r}")
        return 1
    return 0


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specshare",
        description="Hierarchical spectrum-sharing simulator: train, evaluate, benchmark, replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent, write log + checkpoint")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--algo", required=True, choices=AGENT_KINDS)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--trace")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="greedy evaluation, per-step CSV + report")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--algo", required=True, choices=AGENT_KINDS)
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--seeds")
    p_eval.add_argument("--episodes", type=int)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--trace")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="compare agents over seeds; timing + table")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--algos", required=True)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--seeds")
    p_bench.add_argument("--episodes", type=int)
    p_bench.add_argument("--train-episodes", type=int, default=0)
    p_bench.add_argument("--sweep", choices=("local_power",))
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)

    p_replay = sub.add_parser(
        "replay", help="recompute metrics from a trace, report deviation; exit 1 on any"
    )
    p_replay.add_argument("--trace", required=True)
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # a ConfigError is a ValueError
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
