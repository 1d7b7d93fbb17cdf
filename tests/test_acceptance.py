"""End-to-end acceptance suite.

Each test prints one `criterion N [PASS|FAIL]` line (run with -s to see
them on success).  The expensive desk-scale training runs are shared by
the criteria that need trained agents.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from specshare.agents import evaluate, exhaustive_solve, make_agent, train
from specshare.allocation import validate
from specshare.channel import compute_snapshot
from specshare.cli import main
from specshare.config import PpoConfig, ScenarioConfig, load_config
from specshare.env import SpectrumSharingEnv
from specshare.metrics import compute_step_metrics, jain_fairness
from specshare.ppo import (
    ActionSchema,
    PolicyNet,
    action_constants,
    forward,
    gae,
    grad_check,
    loss_and_grads,
    sample_action,
)
from specshare.topology import TIER_UAV, build_topology, dbm_to_watts
from topo_helpers import region_transmitter_rows

DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

EVAL_EPISODES = 5


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


# -- shared training runs -----------------------------------------------------


@pytest.fixture(scope="session")
def desk_results():
    """Train HDRL on the desk scenario for three seeds; evaluate everything once."""
    results = {}
    for seed in (0, 1, 2):
        cfg = load_config(DESK_CFG)
        cfg.seed = seed
        cfg.validate()
        env = SpectrumSharingEnv(cfg)
        agent = make_agent("hdrl", cfg)
        rows = train(agent, env)  # cfg.episodes = 300
        hdrl_eval = evaluate(agent, SpectrumSharingEnv(cfg), episodes=EVAL_EPISODES)
        random_eval = evaluate(
            make_agent("random", cfg), SpectrumSharingEnv(cfg), episodes=EVAL_EPISODES
        )
        results[seed] = {
            "cfg": cfg,
            "train_rows": rows,
            "hdrl": hdrl_eval,
            "random": random_eval,
            "exhaustive": exhaustive_solve(cfg),
        }
    return results


# -- 1: constraint soundness under fuzzing -------------------------------------


def _fuzz_configs(rng, kind: str, count: int):
    """Small random scenarios; the exhaustive kind needs tiny search spaces."""
    pool = []
    intervals = [(4, 2, 1), (6, 3, 1), (4, 4, 2), (8, 4, 1), (2, 1, 1)]
    while len(pool) < count:
        cfg = ScenarioConfig()
        if kind == "exhaustive":
            cfg.beams = int(rng.integers(1, 3))
            cfg.haps_per_beam = 1
            cfg.regions_per_hap = 1
            cfg.uavs_per_region = 1
            cfg.num_subbands = 2
            cfg.fading_frozen = True
            # longer episodes amortize the per-episode re-solve
            cfg.steps_per_episode = 32
        else:
            cfg.beams = int(rng.integers(1, 3))
            cfg.haps_per_beam = int(rng.integers(1, 3))
            cfg.regions_per_hap = int(rng.integers(1, 3))
            cfg.uavs_per_region = int(rng.integers(1, 3))
            cfg.num_subbands = int(rng.integers(2, 4))
            cfg.fading_frozen = bool(rng.random() < 0.5)
            # keep the biggest scenarios out of the timing budget
            if cfg.num_regions * cfg.nodes_per_region > 12:
                cfg.regions_per_hap = 1
            if cfg.num_regions * cfg.nodes_per_region > 12:
                cfg.uavs_per_region = 1
            cfg.steps_per_episode = 16
        cfg.users_per_region = int(rng.integers(1, 3))
        cfg.decision_intervals = intervals[int(rng.integers(0, len(intervals)))]
        cfg.uav_step = float(rng.choice([0.0, 5.0, 25.0]))
        cfg.region_size = (float(rng.choice([400.0, 2000.0])),) * 2
        cfg.seed = int(rng.integers(0, 1000))
        # updates may fire mid-fuzz; keep them cheap
        cfg.ppo.sgd_iters = 2
        cfg.ppo.minibatch_size = 256
        cfg.validate()
        pool.append(cfg)
    return pool


def test_criterion_1_constraint_soundness():
    rng = np.random.default_rng(1234)
    target_steps = 10_000
    t0 = time.perf_counter()
    totals = {}
    for kind in ("random", "exhaustive", "sadrl", "madrl", "hdrl"):
        t_kind = time.perf_counter()
        configs = _fuzz_configs(rng, kind, 12)
        arena = [(SpectrumSharingEnv(c), make_agent(kind, c)) for c in configs]
        stepped = 0
        violations = 0
        ci = 0
        while stepped < target_steps:
            env, agent = arena[ci % len(arena)]
            cfg = env.cfg
            ci += 1
            obs = env.reset(seed=ci)
            agent.begin_episode(env)
            for t in range(cfg.steps_per_episode):
                bundle = agent.act(obs, t, explore=True)
                obs, rewards, _, _, _ = env.step(bundle)
                agent.record(rewards)
                if validate(env.state.alloc, cfg) is not None:
                    violations += 1
                stepped += 1
                if stepped >= target_steps:
                    break
            agent.end_episode()
        totals[kind] = (stepped, violations, time.perf_counter() - t_kind)
    elapsed = time.perf_counter() - t0
    bad = sum(v for _, v, _ in totals.values())
    ok = bad == 0 and elapsed < 60.0
    per_kind = ", ".join(f"{k} {s} steps {dt:.1f} s" for k, (s, _, dt) in totals.items())
    _verdict(
        1,
        "constraint soundness",
        ok,
        f"{sum(s for s, _, _ in totals.values())} fuzzed steps across 5 agent kinds, "
        f"{bad} violations, {elapsed:.1f} s (< 60 s); {per_kind}",
    )


# -- 2: metric oracle equivalence ----------------------------------------------


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    for trial in range(100):
        cfg = ScenarioConfig()
        cfg.beams = int(rng.integers(1, 3))
        cfg.haps_per_beam = 1
        cfg.regions_per_hap = int(rng.integers(1, 3))
        cfg.uavs_per_region = 1
        cfg.users_per_region = int(rng.integers(2, 5))
        cfg.num_subbands = int(rng.integers(2, 5))
        cfg.fading_frozen = True
        cfg.seed = trial
        cfg.validate()
        topo = build_topology(cfg, np.random.default_rng(cfg.seed))
        power = dbm_to_watts([n.tx_power_dbm for n in topo.transmitters()])
        w = cfg.reward_weights

        # random feasible allocation
        from specshare.allocation import AllocationState

        state = AllocationState.zeros(cfg)
        m = cfg.nodes_per_region
        for n in range(cfg.num_subbands):
            b = int(rng.integers(0, cfg.beams + 1))
            if b:
                state.global_alloc[b - 1, n] = 1
        for region in range(cfg.num_regions):
            beam = (region // cfg.regions_per_hap) // cfg.haps_per_beam
            for n in range(cfg.num_subbands):
                if state.global_alloc[beam, n] and rng.random() < 0.8:
                    state.regional[region * m + int(rng.integers(0, m)), n] = 1
        state.beta = (state.regional * (rng.random(state.regional.shape) < 0.9)).astype(np.int8)
        alpha = rng.random(state.alpha.shape)
        used = (state.beta * alpha).sum(axis=1, keepdims=True)
        state.alpha = alpha / np.maximum(used, 1.0)

        pos = np.stack([n.position for n in topo.transmitters()])
        pos[:, :2] += rng.normal(0, 250, size=(cfg.num_transmitters, 2))
        snap = compute_snapshot(topo, state, pos, rng=None)[0]
        got = compute_step_metrics(topo, state, snap, pos)

        # straight-line oracle: plain loops, no shared helpers
        per_band = cfg.total_bandwidth / cfg.num_subbands
        noise = 10.0 ** ((cfg.noise_psd - 30.0) / 10.0) * per_band
        rates = np.zeros(cfg.num_users)
        sinr_ref = np.zeros((cfg.num_users, cfg.num_subbands))
        for u in range(cfg.num_users):
            row = snap.association[u]
            if row < 0:
                continue
            for n in range(cfg.num_subbands):
                if state.regional[row, n] and state.beta[row, n]:
                    s = snap.gains[row, u] * state.alpha[row, n] * power[row]
                    sinr_ref[u, n] = s / (snap.interference[u, n] + noise)
                    rates[u] += per_band * np.log2(1.0 + sinr_ref[u, n])

        def rel(a, b):
            scale = max(abs(float(b)), 1e-30)
            return abs(float(a) - float(b)) / scale

        worst = max(worst, np.max(np.abs(got.sinr - sinr_ref) / np.maximum(np.abs(sinr_ref), 1e-30)) if sinr_ref.any() else 0.0)
        k = cfg.users_per_region
        for region in range(cfg.num_regions):
            rr = rates[region * k : (region + 1) * k]
            eta_r = rr.sum() / cfg.total_bandwidth
            fair_r = 1.0 if rr.sum() == 0 else rr.sum() ** 2 / (rr.size * (rr**2).sum())
            qos_r = max(0.0, cfg.r_min - rr.min())
            worst = max(worst, rel(got.region_eta[region], eta_r) if eta_r else abs(got.region_eta[region]))
            worst = max(worst, rel(got.region_fairness[region], fair_r))
            worst = max(worst, rel(got.region_qos[region], qos_r) if qos_r else abs(got.region_qos[region]))
            uav_rows = [
                r for r in region_transmitter_rows(topo, region)
                if topo.transmitters()[r].tier == TIER_UAV
            ]
            x0, y0, x1, y1 = topo.region_bounds[region]
            out = [not (x0 <= pos[r, 0] <= x1 and y0 <= pos[r, 1] <= y1) for r in uav_rows]
            uav_r = float(np.mean(out)) if out else 0.0
            worst = max(worst, abs(got.region_uav_penalty[region] - uav_r))
        total = rates.sum()
        worst = max(worst, rel(got.eta, total / cfg.total_bandwidth) if total else abs(got.eta))
        exp_fair = 1.0 if total == 0 else total**2 / (rates.size * (rates**2).sum())
        worst = max(worst, rel(got.fairness, exp_fair))
        checked += 1
    ok = worst < 1e-12
    _verdict(
        2,
        "metric oracle equivalence",
        ok,
        f"{checked} random states, worst relative deviation {worst:.3e} (< 1e-12)",
    )


# -- 3: Jain bounds and scale invariance ----------------------------------------


def test_criterion_3_jain_properties():
    rng = np.random.default_rng(3)
    worst_dev = 0.0
    ok_bounds = True
    for _ in range(10_000):
        k = int(rng.integers(1, 16))
        r = rng.random(k) * 10.0 ** rng.integers(0, 9)
        f = jain_fairness(r)
        if not (1.0 / k - 1e-12 <= f <= 1.0 + 1e-12):
            ok_bounds = False
        c = float(rng.uniform(0.1, 100.0))
        worst_dev = max(worst_dev, abs(jain_fairness(c * r) - f))
    ok = ok_bounds and worst_dev < 1e-12
    _verdict(
        3,
        "Jain bounds and scale invariance",
        ok,
        f"10000 vectors, bounds {'held' if ok_bounds else 'VIOLATED'}, "
        f"max |F(cR)-F(R)| = {worst_dev:.3e} (< 1e-12)",
    )


# -- 4: gradient correctness -----------------------------------------------------


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    cfg = PpoConfig(clip_eps=0.2, entropy_coef=0.01, vf_coef=1.0)
    worst = 0.0
    for trial in range(20):
        arities = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4))))
        bounds = tuple((0.0, 1.0) for _ in range(int(rng.integers(1, 3))))
        schema = ActionSchema(cat_arities=arities, cont_bounds=bounds)
        input_dim = int(rng.integers(3, 7))
        net = PolicyNet(input_dim, schema, hidden=(8, 8), rng=np.random.default_rng(trial))
        obs = rng.normal(size=(12, input_dim))
        params = forward(net, obs)
        action, logp = sample_action(params, rng)
        batch = {
            "obs": obs,
            "cat": action.cat,
            "cont": action.cont,
            "logp": logp,
            "adv": rng.normal(size=12),
            "ret": rng.normal(size=12),
            **action_constants(schema, action.cat, action.cont),
        }

        def loss_fn(n):
            report, grads = loss_and_grads(n, batch, cfg)
            return report.loss, grads

        worst = max(worst, grad_check(net, loss_fn))
    ok = worst < 1e-3
    _verdict(
        4,
        "gradient correctness",
        ok,
        f"20 random nets, worst relative gradient error {worst:.3e} (< 1e-3)",
    )


# -- 5: GAE brute-force equivalence ----------------------------------------------


def test_criterion_5_gae_brute_force():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 60))
        r = rng.normal(size=T) * 10.0 ** rng.integers(-2, 3)
        d = (rng.random(T) < 0.15).astype(float)
        gamma = float(rng.uniform(0.0, 1.0))
        adv, ret = gae(r, np.zeros(T), d, gamma, 1.0)
        expect = np.zeros(T)
        g = 0.0
        for t in range(T - 1, -1, -1):
            g = r[t] + gamma * g * (1.0 - d[t])
            expect[t] = g
        worst = max(worst, float(np.max(np.abs(adv - expect))))
        worst = max(worst, float(np.max(np.abs(ret - expect))))
    # (T, E): E sequences sharing the dones in one call; each column must be
    # the 1-D call on it, bit for bit, and match the brute force too
    columns_differ = 0
    for _ in range(200):
        T, E = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        r = rng.normal(size=(T, E)) * 10.0 ** rng.integers(-2, 3)
        v = rng.normal(size=(T, E))
        d = (rng.random(T) < 0.15).astype(float)
        gamma, lam = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
        adv, ret = gae(r, v, d, gamma, lam)
        for e in range(E):
            adv_e, ret_e = gae(r[:, e], v[:, e], d, gamma, lam)
            columns_differ += adv[:, e].tobytes() != adv_e.tobytes()
            columns_differ += ret[:, e].tobytes() != ret_e.tobytes()
        adv, ret = gae(r, np.zeros((T, E)), d, gamma, 1.0)
        expect = np.zeros((T, E))
        g = np.zeros(E)
        for t in range(T - 1, -1, -1):
            g = r[t] + gamma * g * (1.0 - d[t])
            expect[t] = g
        worst = max(worst, float(np.max(np.abs(adv - expect))))
        worst = max(worst, float(np.max(np.abs(ret - expect))))
    ok = worst < 1e-10 and columns_differ == 0
    _verdict(
        5,
        "GAE brute-force equivalence",
        ok,
        f"1000 sequences and 200 (T, E) batches, max |adv - discounted reward-to-go| = "
        f"{worst:.3e} (< 1e-10), {columns_differ} (T, E) columns off the 1-D call's bits",
    )


# -- 6: optimality trend -----------------------------------------------------------


def test_criterion_6_optimality_trend(desk_results):
    hdrl = np.mean([desk_results[s]["hdrl"]["eta_mean"] for s in desk_results])
    best = np.mean([desk_results[s]["exhaustive"]["eta"] for s in desk_results])
    rand = np.mean([desk_results[s]["random"]["eta_mean"] for s in desk_results])
    ok = hdrl >= 0.85 * best and rand <= 0.9 * hdrl
    _verdict(
        6,
        "optimality trend",
        ok,
        f"mean eta over 3 seeds: hdrl {hdrl:.4f} vs exhaustive {best:.4f} "
        f"(ratio {hdrl / best:.2f}, needs >= 0.85) and random {rand:.4f} "
        f"<= 0.9 x hdrl ({0.9 * hdrl:.4f})",
    )


# -- 7: runtime ordering -------------------------------------------------------------


def test_criterion_7_runtime_ordering():
    cfg = load_config(DESK_CFG)
    times = {}
    for kind in ("exhaustive", "madrl", "hdrl", "sadrl", "random"):
        res = evaluate(make_agent(kind, cfg), SpectrumSharingEnv(cfg), episodes=EVAL_EPISODES)
        times[kind] = float(np.mean(res["decision_time_s"]))
    order_ok = (
        times["exhaustive"] > times["madrl"] > times["hdrl"] > times["sadrl"] > times["random"]
    )
    ratio = times["exhaustive"] / times["hdrl"]
    ok = order_ok and ratio >= 5.0
    detail = ", ".join(f"{k} {v * 1e3:.2f} ms" for k, v in times.items())
    _verdict(
        7,
        "runtime ordering",
        ok,
        f"per-episode decision time: {detail}; exhaustive/hdrl = {ratio:.1f} (>= 5)",
    )


# -- 8: learning progress --------------------------------------------------------------


def test_criterion_8_learning_progress(desk_results):
    firsts, lasts = [], []
    for seed in desk_results:
        rows = desk_results[seed]["train_rows"]
        tenth = max(1, len(rows) // 10)
        firsts.append(np.mean([r["cumulative_reward"] for r in rows[:tenth]]))
        lasts.append(np.mean([r["cumulative_reward"] for r in rows[-tenth:]]))
    first, last = float(np.mean(firsts)), float(np.mean(lasts))
    ok = last >= 1.2 * first
    _verdict(
        8,
        "learning progress",
        ok,
        f"mean cumulative reward over 3 seeds: first 10% {first:.2f} -> last 10% {last:.2f} "
        f"(ratio {last / first:.2f}, needs >= 1.2)",
    )


# -- 9: interval gating exactness ---------------------------------------------------------


def test_criterion_9_interval_gating(tmp_path):
    cfg = load_config(DEFAULT_CFG)
    trace = tmp_path / "episode.jsonl"
    env = SpectrumSharingEnv(cfg, trace_path=trace)
    agent = make_agent("random", cfg)
    obs = env.reset(seed=0)
    agent.begin_episode(env)
    for t in range(cfg.steps_per_episode):
        obs, *_ = env.step(agent.act(obs, t, explore=True))
    env.close()
    steps = [json.loads(x) for x in trace.read_text().splitlines()][1:]
    n_global = sum(1 for s in steps if s["decisions"]["global"])
    n_regional = sum(len(s["decisions"]["regional"]) for s in steps)
    ok = n_global == 10 and n_regional == 100
    _verdict(
        9,
        "interval gating exactness",
        ok,
        f"default scenario trace: {n_global} global events (= 10), "
        f"{n_regional} regional events (= 100)",
    )


# -- 10: determinism and replay --------------------------------------------------------------


def test_criterion_10_determinism_and_replay(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    trace = tmp_path / "trace.jsonl"
    args = ["evaluate", "--config", str(DESK_CFG), "--algo", "random", "--episodes", "2"]
    assert main(args + ["--out", str(out_a), "--trace", str(trace)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    same_steps = (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    same_report = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert main(["replay", "--trace", str(trace)]) == 0
    printed = capsys.readouterr().out
    deviation = float(printed.splitlines()[0].rsplit(" ", 1)[1])
    ok = same_steps and same_report and deviation == 0.0
    _verdict(
        10,
        "determinism and replay",
        ok,
        f"steps.csv identical: {same_steps}, report.json identical: {same_report}, "
        f"replay deviation: {deviation}",
    )


# -- 11: throughput stability ------------------------------------------------------------------


def test_criterion_11_throughput_stability(desk_results):
    hdrl_stds, random_stds = [], []
    for seed in desk_results:
        h = np.array([s["throughput_bps"] for s in desk_results[seed]["hdrl"]["steps"]])
        r = np.array([s["throughput_bps"] for s in desk_results[seed]["random"]["steps"]])
        hdrl_stds.append(float(np.std(h)))
        random_stds.append(float(np.std(r)))
    h_std, r_std = float(np.mean(hdrl_stds)), float(np.mean(random_stds))
    ok = h_std <= r_std
    per_seed = ", ".join(
        f"seed {s}: {h / 1e6:.2f} vs {r / 1e6:.2f} Mbps"
        for s, h, r in zip(desk_results, hdrl_stds, random_stds)
    )
    _verdict(
        11,
        "throughput stability",
        ok,
        f"per-step throughput std, trained hdrl vs random ({per_seed}); "
        f"means {h_std / 1e6:.2f} <= {r_std / 1e6:.2f} Mbps",
    )
