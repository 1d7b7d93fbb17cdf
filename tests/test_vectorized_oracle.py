"""The region-blocked step must reproduce the per-region loop oracle bit for bit.

Runs every agent kind over the criterion-1 fuzz scenarios, and two agent
kinds over the shipped desk and default configs, with frozen and
stochastic fading and both interference scopes; after every step it
compares the env's allocation, channel, metrics and observations with
``reference_loops``.  ``validate`` is also compared on corrupted copies of
each state, so the first-violation contract (constraint, location and
message) is checked on infeasible states as well as feasible ones.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from reference_loops import (
    apply_local_loop,
    associate_users_loop,
    interference_loop,
    link_gains_loop,
    observe_all_loop,
    step_metrics_loop,
    validate_loop,
)
from specshare.agents import AGENT_KINDS, make_agent
from specshare.allocation import validate
from specshare.channel import associate_users, co_channel_interference, link_gains
from specshare.config import config_from_dict, load_config
from specshare.env import SpectrumSharingEnv
from specshare.topology import build_topology
from test_acceptance import _fuzz_configs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _criterion_1_scenarios():
    """The criterion-1 fuzz configs, drawn in the order that test draws them."""
    rng = np.random.default_rng(1234)
    return {kind: _fuzz_configs(rng, kind, 12) for kind in ("random", "exhaustive", "sadrl", "madrl", "hdrl")}


_SCENARIOS = _criterion_1_scenarios()


def _variants(kind, cfg):
    """The scenario under both interference scopes and both fading modes."""
    fadings = (True,) if kind == "exhaustive" else (cfg.fading_frozen, not cfg.fading_frozen)
    for scope in ("global", "region"):
        for frozen in fadings:
            data = cfg.to_dict()
            data["interference_scope"] = scope
            data["fading_frozen"] = frozen
            yield config_from_dict(data)


def _corrupt(state, cfg, rng):
    """A copy of ``state`` with one to three random entries set to odd values."""
    bad = state.copy()
    for _ in range(int(rng.integers(1, 4))):
        name = ("global_alloc", "regional", "beta", "alpha", "dp")[int(rng.integers(0, 5))]
        arr = getattr(bad, name)
        if name in ("regional", "beta") and rng.random() < 0.3:
            arr = arr.astype(float)  # float-typed 0/1 arrays must validate like int8 ones
            setattr(bad, name, arr)
        idx = tuple(int(rng.integers(0, d)) for d in arr.shape)
        choices = [0, 1, 2, -1]
        if arr.dtype.kind == "f":
            choices += [0.5, 1.5, cfg.uav_step + 1.0, -cfg.uav_step - 1.0]
        arr[idx] = choices[int(rng.integers(0, len(choices)))]
    return bad


def _check_step(env, obs, bundle, rng):
    cfg, topo, state = env.cfg, env.topology, env.state
    snap = state.snapshot

    # local apply: the env's clamp over all rows at once vs one row at a
    # time; the clamp reads only the regional grant, which nothing after it
    # in the step changes, and overwrites beta, alpha and dp
    ref = state.alloc.copy()
    apply_local_loop(ref, bundle["local"], cfg, topo)
    for name in ("beta", "alpha", "dp"):
        assert _same_bits(getattr(state.alloc, name), getattr(ref, name)), name

    # channel
    assert _same_bits(snap.association, associate_users_loop(topo, snap.gains, state.alloc.regional))
    assert _same_bits(associate_users(topo, snap.gains, state.alloc.regional), snap.association)
    want = interference_loop(
        topo, snap.gains, state.alloc, snap.tx_power_w, snap.association, cfg.interference_scope
    )
    assert _same_bits(snap.interference, want)
    got = co_channel_interference(
        topo, snap.gains, state.alloc, snap.tx_power_w, snap.association, cfg.interference_scope
    )
    assert _same_bits(got, want)

    # metrics
    want_m = step_metrics_loop(topo, state.alloc, snap, state.tx_positions, env.norms)
    for f in dataclasses.fields(want_m):
        assert _same_bits(getattr(state.metrics, f.name), getattr(want_m, f.name)), f.name

    # observations, from step() and from observe()
    want_obs = observe_all_loop(topo, state)
    assert _same_bits(obs["global"], want_obs["global"])
    assert _same_bits(env.observe("global"), want_obs["global"])
    assert len(obs["regional"]) == len(want_obs["regional"])
    for hap, vec in want_obs["regional"].items():
        assert _same_bits(obs["regional"][hap], vec)
        assert _same_bits(env.observe("regional", hap), vec)
    assert len(obs["local"]) == len(want_obs["local"])
    for row, vec in want_obs["local"].items():
        assert _same_bits(obs["local"][row], vec)
        assert _same_bits(env.observe("local", row), vec)

    # validate: the feasible state, then corrupted copies
    assert validate(state.alloc, cfg) is None
    assert validate_loop(state.alloc, cfg) is None
    for _ in range(4):
        bad = _corrupt(state.alloc, cfg, rng)
        assert validate(bad, cfg) == validate_loop(bad, cfg)


def _run_episode_and_check(kind, cfg, seed, rng) -> int:
    env = SpectrumSharingEnv(cfg)
    agent = make_agent(kind, cfg)
    obs = env.reset(seed=seed)
    agent.begin_episode(env)
    for t in range(cfg.steps_per_episode):
        bundle = agent.act(obs, t, explore=True)
        obs, rewards, _, truncated, _ = env.step(bundle)
        agent.record(rewards, done=truncated)
        _check_step(env, obs, bundle, rng)
    agent.end_episode()
    return cfg.steps_per_episode


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_block_step_matches_loop_oracle(kind):
    rng = np.random.default_rng(99)
    checked = 0
    for i, base in enumerate(_SCENARIOS[kind]):
        for cfg in _variants(kind, base):
            checked += _run_episode_and_check(kind, cfg, i, rng)
    assert checked > 0


@pytest.mark.parametrize("name", ["desk", "default"])
def test_block_step_matches_loop_oracle_on_shipped_configs(name):
    # the fuzz scenarios have at most two users per region, where every sum
    # over a region's users is order-free; the shipped configs have 4 and 10
    rng = np.random.default_rng(98)
    base = load_config(CONFIGS / f"{name}.cfg")
    base.steps_per_episode = 12
    for kind in ("random", "hdrl"):
        for cfg in _variants(kind, base):
            _run_episode_and_check(kind, cfg, 5, rng)



def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _gain_topology(name):
    """The scenario's topology with its user coordinates made read-only."""
    cfg = load_config(CONFIGS / ("desk.cfg" if name == "desk" else "default.cfg"))
    if name == "multi-hap":
        cfg.haps_per_beam, cfg.regions_per_hap, cfg.users_per_region = 3, 4, 7
    elif name == "r128":  # the benchmark's large scenario
        cfg.haps_per_beam, cfg.regions_per_hap = 8, 8
    topo = build_topology(cfg, np.random.default_rng(cfg.seed))
    _read_only(topo.user_positions)
    return topo


def _moved_positions(topo, moves):
    """Read-only transmitter positions with every UAV and TBS off its home."""
    pos = np.stack([n.position for n in topo.transmitters()])
    pos[topo.uav_rows, :2] += moves.uniform(-300.0, 300.0, (topo.uav_rows.size, 2))
    tbs = ~topo.is_uav
    pos[tbs, :2] += moves.uniform(-50.0, 50.0, (int(tbs.sum()), 2))
    return _read_only(pos)


@pytest.mark.parametrize("name", ["desk", "default", "multi-hap"])
def test_unfrozen_link_gains_match_the_per_row_fading_draw(name):
    # one (T, U) fading draw must give the per-row draws' numbers and leave
    # the generator where they leave it, so later draws are unchanged too
    topo = _gain_topology(name)
    moves = np.random.default_rng(7)
    for seed in range(4):
        pos = _moved_positions(topo, moves)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive steps share one generator
            got = link_gains(topo, pos, rng_got, frozen=False)
            assert _same_bits(got, link_gains_loop(topo, pos, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("name", ["desk", "default", "multi-hap"])
def test_frozen_link_gains_match_the_loop_oracle_and_draw_nothing(name):
    topo = _gain_topology(name)
    moves = np.random.default_rng(8)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for _ in range(3):
        pos = _moved_positions(topo, moves)
        for gen in (None, rng):
            got = link_gains(topo, pos, gen, frozen=True)
            assert _same_bits(got, link_gains_loop(topo, pos, None, frozen=True))
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("frozen", [False, True])
def test_link_gains_match_the_loop_oracle_at_128_regions(frozen):
    topo = _gain_topology("r128")
    assert (len(topo.nodes), topo.cfg.num_users) == (384, 1280)
    pos = _moved_positions(topo, np.random.default_rng(9))
    rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
    got = link_gains(topo, pos, rng_got, frozen=frozen)
    assert _same_bits(got, link_gains_loop(topo, pos, rng_want, frozen=frozen))
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
