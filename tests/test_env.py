import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshare.allocation import ALLOCATION_ARRAYS, AllocationState, validate
from specshare import env as env_module
from specshare.config import ScenarioConfig, config_from_dict
from specshare.env import ScheduleError, SpectrumSharingEnv, episode_summary
from specshare.metrics import compute_step_metrics
from specshare.channel import compute_snapshot
from specshare.topology import build_topology
from topo_helpers import beam_of_region, small_scenarios


def _cfg(**overrides):
    cfg = ScenarioConfig()
    cfg.beams = 2
    cfg.haps_per_beam = 1
    cfg.regions_per_hap = 1
    cfg.uavs_per_region = 1
    cfg.users_per_region = 4
    cfg.num_subbands = 4
    cfg.fading_frozen = True
    cfg.steps_per_episode = 8
    cfg.decision_intervals = (4, 2, 1)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def _bundle(env, rng, t):
    """Raw random action bundle honoring the decision schedule."""
    cfg = env.cfg
    actions = {
        "local": {
            "beta": (rng.random((cfg.num_transmitters, cfg.num_subbands)) < 0.7).astype(float),
            "alpha": rng.random((cfg.num_transmitters, cfg.num_subbands)),
            "dp": rng.uniform(-cfg.uav_step, cfg.uav_step, size=(cfg.num_transmitters, 2)),
        }
    }
    if cfg.global_due(t):
        actions["global"] = (rng.random((cfg.beams, cfg.num_subbands)) < 0.7).astype(float)
    if cfg.regional_due(t):
        m = cfg.nodes_per_region
        actions["regional"] = (rng.random((cfg.num_regions, m, cfg.num_subbands)) < 0.7).astype(float)
    return actions


def test_reset_gives_zero_allocation_and_full_observation():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    obs = env.reset(seed=0)
    assert env.state.t == 0
    assert env.state.alloc.global_alloc.sum() == 0
    n, b = cfg.num_subbands, cfg.beams
    m = cfg.nodes_per_region
    k = cfg.users_per_region
    assert obs["global"].shape == (n + 2 * b,)
    assert len(obs["regional"]) == cfg.num_haps
    assert obs["regional"][0].shape == (n + 2 * cfg.regions_per_hap * m,)
    assert len(obs["local"]) == cfg.num_transmitters
    assert obs["local"][0].shape == (2 * n + 3 * k + 2,)
    for vec in [obs["global"], obs["regional"][0], obs["local"][0]]:
        assert np.isfinite(vec).all()
        assert ((vec >= 0.0) & (vec <= 1.0)).all()


def test_step_before_reset_raises():
    env = SpectrumSharingEnv(_cfg())
    with pytest.raises(RuntimeError):
        env.step({})


def test_schedule_gating():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(0)

    # t=0: global and regional are both due; omitting either is an error
    full = _bundle(env, rng, 0)
    with pytest.raises(ScheduleError, match="global"):
        env.step({k: v for k, v in full.items() if k != "global"})
    with pytest.raises(ScheduleError, match="regional"):
        env.step({k: v for k, v in full.items() if k != "regional"})
    with pytest.raises(ScheduleError, match="local"):
        env.step({k: v for k, v in full.items() if k != "local"})
    env.step(full)

    # t=1: nothing but local is allowed
    stray = _bundle(env, rng, 1)
    stray["global"] = np.zeros((cfg.beams, cfg.num_subbands))
    with pytest.raises(ScheduleError, match="off-schedule"):
        env.step(stray)
    stray = _bundle(env, rng, 1)
    stray["regional"] = np.zeros((cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands))
    with pytest.raises(ScheduleError, match="off-schedule"):
        env.step(stray)
    env.step(_bundle(env, rng, 1))

    # t=2: regional due again (interval 2), global not until t=4
    assert cfg.regional_due(2) and not cfg.global_due(2)


def test_missing_region_in_regional_action():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(1)
    actions = _bundle(env, rng, 0)
    actions["regional"] = actions["regional"][:-1]
    with pytest.raises(ValueError, match="regional action must be"):
        env.step(actions)


def test_local_shape_error():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    actions = _bundle(env, np.random.default_rng(2), 0)
    actions["local"]["alpha"] = actions["local"]["alpha"][:, :2]
    with pytest.raises(ValueError, match="shape"):
        env.step(actions)


@pytest.mark.parametrize("name", ["alpha", "dp"])
def test_local_non_finite_error(name):
    # the clamp carries a NaN through, so the env refuses it before any write
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    positions = env.state.tx_positions.copy()
    actions = _bundle(env, np.random.default_rng(2), 0)
    actions["local"][name][0, 0] = np.nan
    with pytest.raises(ValueError, match=f"local action '{name}' holds a non-finite value"):
        env.step(actions)
    assert np.array_equal(env.state.tx_positions, positions)
    assert np.isfinite(env.state.alloc.alpha).all() and np.isfinite(env.state.alloc.dp).all()


def test_global_revocation_cascades_downward():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    m = cfg.nodes_per_region
    n = cfg.num_subbands

    grant_all = {
        "global": np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float),
        "regional": np.tile(np.eye(m, n), (cfg.num_regions, 1, 1)),
        "local": {
            "beta": np.ones((cfg.num_transmitters, n)),
            "alpha": np.full((cfg.num_transmitters, n), 0.2),
            "dp": np.zeros((cfg.num_transmitters, 2)),
        },
    }
    env.step(grant_all)
    assert env.state.alloc.regional[0, 0] == 1
    assert env.state.alloc.beta[0, 0] == 1

    # quiet steps until the next global slot
    for t in (1, 2, 3):
        bundle = {"local": grant_all["local"]}
        if cfg.regional_due(t):
            bundle["regional"] = np.tile(np.eye(m, n), (cfg.num_regions, 1, 1))
        env.step(bundle)

    # t=4: beam 0 loses subband 0; the regional grant and beta must follow
    revoke = {
        "global": np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=float),
        "regional": np.tile(np.eye(m, n), (cfg.num_regions, 1, 1)),
        "local": grant_all["local"],
    }
    env.step(revoke)
    beam0_regions = [r for r in range(cfg.num_regions) if beam_of_region(env.topology, r) == 0]
    for region in beam0_regions:
        rows = slice(region * m, (region + 1) * m)
        assert env.state.alloc.regional[rows, 0].sum() == 0
        assert env.state.alloc.beta[rows, 0].sum() == 0


def test_global_conflicts_resolved_keep_lowest_beam():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    actions = _bundle(env, np.random.default_rng(3), 0)
    actions["global"] = np.ones((cfg.beams, cfg.num_subbands))
    env.step(actions)
    g = env.state.alloc.global_alloc
    assert (g.sum(axis=0) == 1).all()
    assert (g[0] == 1).all()  # lowest-index beam wins every contested subband


def test_every_step_leaves_a_feasible_allocation():
    cfg = _cfg(steps_per_episode=24)
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(4)
    for t in range(cfg.steps_per_episode):
        env.step(_bundle(env, rng, t))
        assert validate(env.state.alloc, cfg) is None


# entries a raw bundle may hold: below 0, between 0 and 1, at and past the
# 0.5 threshold, above 1, and far outside every box
_RAW = np.array([-1e6, -3.0, -1.0, -1e-12, 0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0, 1.0 + 1e-12, 2.0, 7.5, 1e6])


def _raw(rng, shape, scale=1.0):
    """Arbitrary finite entries: half from ``_RAW``, half uniform on
    [-3, 3], each times ``scale``."""
    picked = _RAW[rng.integers(0, _RAW.size, shape)]
    return np.where(rng.random(shape) < 0.5, picked, rng.uniform(-3.0, 3.0, shape)) * scale


def _raw_bundle(cfg, rng, t):
    """A raw bundle on schedule at step ``t``, entries from ``_raw``."""
    t_count, n = cfg.num_transmitters, cfg.num_subbands
    actions = {
        "local": {
            "beta": _raw(rng, (t_count, n)),
            "alpha": _raw(rng, (t_count, n)),
            "dp": _raw(rng, (t_count, 2), scale=max(cfg.uav_step, 1.0)),
        }
    }
    if cfg.global_due(t):
        actions["global"] = _raw(rng, (cfg.beams, n))
    if cfg.regional_due(t):
        actions["regional"] = _raw(rng, (cfg.num_regions, cfg.nodes_per_region, n))
    return actions


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    cfg=small_scenarios(),
    intervals=st.sampled_from([(1, 1, 1), (2, 1, 1), (4, 2, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_raw_bundles_on_schedule_leave_a_feasible_state(cfg, intervals, seed):
    # every tier's raw action is projected, never refused: non-binary
    # grants and masks, several beams or nodes on one subband, alpha outside
    # [0, 1] and dp beyond the step limit all step to a feasible state
    cfg.decision_intervals = intervals
    cfg.steps_per_episode = 8
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=seed % 1000)
    rng = np.random.default_rng(seed)
    for t in range(cfg.steps_per_episode):
        env.step(_raw_bundle(cfg, rng, t))
        assert validate(env.state.alloc, cfg) is None


def _state_bits(env) -> dict:
    """Dtype, shape and bytes of everything a step writes: the five
    allocation arrays, the positions, the snapshot, the metrics, and t."""
    state = env.state
    arrays = {attr: getattr(state.alloc, attr) for _, attr, _, _ in ALLOCATION_ARRAYS}
    arrays["tx_positions"] = state.tx_positions
    for name in ("gains", "association", "interference"):
        arrays[name] = getattr(state.snapshot, name)
    if state.metrics is not None:
        for f in dataclasses.fields(state.metrics):
            arrays[f.name] = np.asarray(getattr(state.metrics, f.name))
    bits = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}
    bits["t"] = state.t
    return bits


def _refusals(cfg, t) -> list:
    """Every way to spoil step ``t``'s bundle: drop a due tier, add one that
    is not due, cut a due array's last column, or put a NaN in alpha or dp."""
    due = ["local"] + [tier for tier in ("global", "regional") if getattr(cfg, f"{tier}_due")(t)]
    spoiled = [("drop", tier) for tier in due]
    spoiled += [("add", tier) for tier in ("global", "regional") if tier not in due]
    spoiled += [("shape", tier) for tier in due if tier != "local"]
    spoiled += [("shape", f"local.{name}") for name in ("beta", "alpha", "dp")]
    return spoiled + [("nan", "alpha"), ("nan", "dp")]


def _spoil(cfg, bundle, how, rng) -> dict:
    kind, tier = how
    bundle = {key: dict(value) if key == "local" else value for key, value in bundle.items()}
    if kind == "drop":
        del bundle[tier]
    elif kind == "add":
        extra = _raw_bundle(cfg, rng, 0)  # step 0 is due on every tier
        bundle[tier] = extra[tier]
    elif kind == "shape":
        table, name = (bundle["local"], tier.split(".")[1]) if "." in tier else (bundle, tier)
        table[name] = table[name][..., :-1]
    else:
        arr = bundle["local"][tier].copy()
        arr[tuple(int(rng.integers(0, size)) for size in arr.shape)] = np.nan
        bundle["local"][tier] = arr
    return bundle


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    cfg=small_scenarios(),
    intervals=st.sampled_from([(1, 1, 1), (2, 1, 1), (4, 2, 1)]),
    seed=st.integers(0, 2**32 - 1),
    valid_steps=st.integers(0, 3),
    data=st.data(),
)
def test_a_refused_step_changes_nothing(cfg, intervals, seed, valid_steps, data):
    # a bundle refused for any reason leaves every array the step writes as
    # it was, and the next valid step gives the bits of an env that never
    # saw it: nothing was half written and no channel draw was taken
    cfg.decision_intervals = intervals
    cfg.steps_per_episode = 8
    rng = np.random.default_rng(seed)
    bundles = [_raw_bundle(cfg, rng, t) for t in range(valid_steps + 1)]
    how = data.draw(st.sampled_from(_refusals(cfg, valid_steps)))
    refused = _spoil(cfg, bundles[valid_steps], how, rng)
    env, twin = SpectrumSharingEnv(cfg), SpectrumSharingEnv(cfg)
    for e in (env, twin):
        e.reset(seed=seed % 1000)
        for bundle in bundles[:valid_steps]:
            e.step(bundle)
    before = _state_bits(env)
    with pytest.raises(ValueError):
        env.step(refused)
    assert _state_bits(env) == before
    obs, _, _, _, _ = env.step(bundles[valid_steps])
    twin_obs, _, _, _, _ = twin.step(bundles[valid_steps])
    assert _state_bits(env) == _state_bits(twin)
    for key in obs:
        assert obs[key].tobytes() == twin_obs[key].tobytes(), key


def test_step_refuses_an_infeasible_read_and_keeps_the_held_state(monkeypatch):
    # the env's own guard: a local read over the power budget (here a clamp
    # that returns every grant at full power) raises before it is committed
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    bundle = _bundle(env, np.random.default_rng(9), 0)
    bundle["global"][:] = 0.0
    bundle["global"][0] = 1.0  # beam 0 holds every subband
    bundle["regional"][:] = 0.0
    bundle["regional"][:, 0] = 1.0  # and node 0 of its region takes them all
    env.step(bundle)
    before = _state_bits(env)

    def over_budget(beta, alpha, dp, granted, uav_step, is_uav):
        return granted.copy(), np.ones(granted.shape), np.zeros(dp.shape)

    monkeypatch.setattr(env_module, "clamp_local", over_budget)
    with pytest.raises(RuntimeError, match="power-budget"):
        env.step(_bundle(env, np.random.default_rng(10), 1))
    assert _state_bits(env) == before


def test_episode_truncates_at_horizon():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(5)
    truncated = False
    for t in range(cfg.steps_per_episode):
        _, rewards, terminated, truncated, metrics = env.step(_bundle(env, rng, t))
        assert terminated is False
        assert set(rewards) == {"r_s", "r_h", "r_l"}
        assert np.isfinite(metrics.r_s)
    assert truncated is True
    with pytest.raises(RuntimeError, match="truncated"):
        env.step(_bundle(env, rng, 0))


def test_uav_moves_by_dp_and_respects_wall():
    cfg = _cfg(region_size=(100.0, 100.0), uav_step=30.0)
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    uav_row = 2  # region-major layout: tbs, tbs, uav
    start_x = env.state.tx_positions[uav_row, 0]
    rng = np.random.default_rng(6)
    actions = _bundle(env, rng, 0)
    actions["local"]["dp"][:] = 0.0
    actions["local"]["dp"][uav_row] = (30.0, 0.0)
    env.step(actions)
    assert env.state.tx_positions[uav_row, 0] == pytest.approx(start_x + 30.0)

    # region 0 spans x in [0, 100]; one more step crosses the boundary and
    # the uav penalty turns on for that region
    actions = _bundle(env, rng, 1)
    actions["local"]["dp"][:] = 0.0
    actions["local"]["dp"][uav_row] = (30.0, 0.0)
    _, _, _, _, metrics = env.step(actions)
    assert env.state.tx_positions[uav_row, 0] > 100.0
    assert metrics.region_uav_penalty[0] == 1.0
    assert metrics.region_uav_penalty[1] == 0.0

    # the wall caps the excursion at one region-extent beyond the rectangle
    for t in range(2, 7):
        actions = _bundle(env, rng, t)
        actions["local"]["dp"][:] = 0.0
        actions["local"]["dp"][uav_row] = (30.0, 0.0)
        env.step(actions)
    assert env.state.tx_positions[uav_row, 0] <= 200.0


def test_two_envs_same_seed_are_bit_identical():
    cfg = _cfg(fading_frozen=False, steps_per_episode=8)
    env_a = SpectrumSharingEnv(cfg)
    env_b = SpectrumSharingEnv(config_from_dict(cfg.to_dict()))
    env_a.reset(seed=3)
    env_b.reset(seed=3)
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    for t in range(cfg.steps_per_episode):
        _, _, _, _, ma = env_a.step(_bundle(env_a, rng_a, t))
        _, _, _, _, mb = env_b.step(_bundle(env_b, rng_b, t))
        assert ma.r_s == mb.r_s
        assert np.array_equal(ma.user_rates, mb.user_rates)
        assert np.array_equal(env_a.state.snapshot.gains, env_b.state.snapshot.gains)


def test_episode_seeds_change_the_channel_but_not_the_topology():
    cfg = _cfg(fading_frozen=False)
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    g0 = env.state.snapshot.gains.copy()
    env.reset(seed=1)
    g1 = env.state.snapshot.gains.copy()
    assert not np.array_equal(g0, g1)
    assert np.array_equal(env.topology.user_positions, env.topology.user_positions)


def test_episode_summary_keys():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    env.reset(seed=0)
    rng = np.random.default_rng(8)
    collected = []
    for t in range(cfg.steps_per_episode):
        collected.append(env.step(_bundle(env, rng, t))[4])
    summary = episode_summary(collected)
    assert set(summary) == {"cumulative_reward", "r_avg", "eta", "fairness"}
    assert summary["cumulative_reward"] == pytest.approx(sum(m.r_s for m in collected))
    assert summary["eta"] == pytest.approx(np.mean([m.eta for m in collected]))


def test_trace_file_structure_and_replayability(tmp_path):
    cfg = _cfg(steps_per_episode=8)
    trace = tmp_path / "episode.jsonl"
    env = SpectrumSharingEnv(cfg, trace_path=trace)
    env.reset(seed=0)
    rng = np.random.default_rng(9)
    for t in range(cfg.steps_per_episode):
        env.step(_bundle(env, rng, t))
    env.close()

    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    header, steps = lines[0], lines[1:]
    assert header["type"] == "header"
    assert header["seed"] == 0
    assert len(steps) == cfg.steps_per_episode

    ds, dh, _ = cfg.decision_intervals
    n_global = sum(1 for s in steps if s["decisions"]["global"])
    n_regional = sum(len(s["decisions"]["regional"]) for s in steps)
    assert n_global == cfg.steps_per_episode // ds
    assert n_regional == (cfg.steps_per_episode // dh) * cfg.num_haps

    # recompute one step's metrics from the traced state alone
    traced_cfg = config_from_dict(header["config"])
    topo = build_topology(traced_cfg, np.random.default_rng(traced_cfg.seed))
    step = steps[3]
    alloc = AllocationState.from_dict(step["allocation"])
    pos = np.asarray(step["tx_positions"])
    gains = np.asarray(step["gains"])
    snap = compute_snapshot(topo, alloc, pos, gains=gains)
    metrics = compute_step_metrics(topo, alloc, snap, pos)
    for key, value in metrics.to_dict().items():
        traced = step["metrics"][key]
        assert np.allclose(traced, value, rtol=1e-12, atol=1e-12), key
