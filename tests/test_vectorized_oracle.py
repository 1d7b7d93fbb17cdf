"""The region-blocked step must reproduce the per-region loop oracle bit for bit.

Runs every agent kind over the criterion-1 fuzz scenarios, and two agent
kinds over the shipped desk and default configs, with frozen and
stochastic fading and both interference scopes; after every step it
compares the env's allocation, channel, metrics and observations with
``reference_loops``.  ``validate`` is also compared on corrupted copies of
each state, so the first-violation contract (constraint, location and
message) is checked on infeasible states as well as feasible ones.  Greedy
hdrl, which decides each tier in one call, is compared with the per-entity
loop at every step; every learned agent, greedy and exploring, with its
own forward-and-sample loop (bundles, generator state and the decisions
recorded); every batch a training agent hands ``ppo_update`` with the one
the per-entity pending/flush bookkeeping builds; and the link gains with
the per-row fading draw, at 128 regions through whole steps too.
"""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import specshare.ppo
from reference_loops import (
    ACT_LOOPS,
    RECORD_LOOPS,
    apply_local_loop,
    associate_users_loop,
    begin_episode_loop,
    end_episode_loop,
    hdrl_greedy_act_loop,
    interference_loop,
    link_gains_loop,
    observe_all_loop,
    slot_books,
    step_metrics_loop,
    validate_loop,
)
from specshare.agents import AGENT_KINDS, make_agent
from specshare.allocation import validate
from specshare.channel import associate_users, co_channel_interference, link_gains
from specshare.config import config_from_dict, load_config
from specshare.env import SpectrumSharingEnv
from specshare.topology import Topology, build_topology
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
    bad = copy.deepcopy(state)
    for _ in range(int(rng.integers(1, 4))):
        name = ("global_alloc", "regional", "beta", "alpha", "dp")[int(rng.integers(0, 5))]
        arr = getattr(bad, name)
        if name in ("regional", "beta") and rng.random() < 0.3:
            arr = arr.astype(float)  # float-typed 0/1 arrays must validate like int8 ones
            setattr(bad, name, arr)
        idx = tuple(int(rng.integers(0, d)) for d in arr.shape)
        choices = [0, 1, 2, -1]
        if arr.dtype.kind == "f":
            choices += [0.5, 1.5, cfg.uav_step + 1.0, -cfg.uav_step - 1.0, np.nan]
        arr[idx] = choices[int(rng.integers(0, len(choices)))]
    return bad


def _check_step(env, obs, bundle, rng):
    cfg, topo, state = env.cfg, env.topology, env.state
    snap = state.snapshot

    # local apply: the env's clamp over all rows at once vs one row at a
    # time; the clamp reads only the regional grant, which nothing after it
    # in the step changes, and overwrites beta, alpha and dp
    ref = copy.deepcopy(state.alloc)
    apply_local_loop(ref, bundle["local"], cfg, topo)
    for name in ("beta", "alpha", "dp"):
        assert _same_bits(getattr(state.alloc, name), getattr(ref, name)), name

    # channel
    assert _same_bits(snap.association, associate_users_loop(topo, snap.gains, state.alloc.regional))
    region_gains = topo.own_region_gains(snap.gains)
    assert _same_bits(associate_users(topo, region_gains, state.alloc.regional), snap.association)
    want = interference_loop(
        topo, snap.gains, state.alloc, topo.tx_power_w, snap.association, cfg.interference_scope
    )
    assert _same_bits(snap.interference, want)
    got = co_channel_interference(topo, snap.gains, region_gains, state.alloc, snap.association)
    assert _same_bits(got, want)

    # metrics
    want_m = step_metrics_loop(topo, state.alloc, snap, state.tx_positions)
    for f in dataclasses.fields(want_m):
        assert _same_bits(getattr(state.metrics, f.name), getattr(want_m, f.name)), f.name

    # observations
    want_obs = observe_all_loop(topo, state)
    assert _same_bits(obs["global"], want_obs["global"])
    assert len(obs["regional"]) == len(want_obs["regional"])
    for hap, vec in want_obs["regional"].items():
        assert _same_bits(obs["regional"][hap], vec)
    assert len(obs["local"]) == len(want_obs["local"])
    for row, vec in want_obs["local"].items():
        assert _same_bits(obs["local"][row], vec)

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
        obs, rewards, _, _, _ = env.step(bundle)
        agent.record(rewards)
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


def test_block_step_matches_loop_oracle_at_128_regions():
    # unfrozen fading under global scope at 128 regions: the gains overlap
    # the draws on the channel worker and the interference product runs in
    # user chunks; the reset and every step must give the loop oracles' bits
    # and leave the channel generator where the per-row fading draw leaves it
    cfg = _scenario("r128")
    cfg.fading_frozen, cfg.interference_scope = False, "global"
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("random", cfg)
    obs = env.reset(seed=3)
    oracle = np.random.default_rng((cfg.seed, 0x5EED, 3))
    want = link_gains_loop(env.topology, env.state.tx_positions, oracle)
    assert _same_bits(env.state.snapshot.gains, want)
    rng = np.random.default_rng(96)
    for t in range(3):
        bundle = agent.act(obs, t, explore=True)
        obs = env.step(bundle)[0]
        want = link_gains_loop(env.topology, env.state.tx_positions, oracle)
        assert _same_bits(env.state.snapshot.gains, want)
        assert env._chan_rng.bit_generator.state == oracle.bit_generator.state
        _check_step(env, obs, bundle, rng)


def test_a_region_scope_step_builds_the_own_region_blocks_once(monkeypatch):
    # the association, the interference and the observations all read one
    # set of (R, m, k) blocks per step, and the interference keeps the loop
    # oracle's bits
    cfg = _scenario("desk")
    cfg.interference_scope = "region"
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("random", cfg)
    obs = env.reset(seed=3)
    built = []
    own_region_gains = Topology.own_region_gains

    def counted(topo, gains):
        built.append(gains)
        return own_region_gains(topo, gains)

    monkeypatch.setattr(Topology, "own_region_gains", counted)
    for t in range(4):
        built.clear()
        obs = env.step(agent.act(obs, t, explore=True))[0]
        state, topo = env.state, env.topology
        assert len(built) == 1 and built[0] is state.snapshot.gains
        want = interference_loop(topo, state.snapshot.gains, state.alloc, topo.tx_power_w,
                                 state.snapshot.association, "region")
        assert _same_bits(state.snapshot.interference, want)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _scenario(name):
    """desk, default, a shape with several HAPs per beam and regions per HAP,
    or the benchmark's 128-region scenario."""
    cfg = load_config(CONFIGS / ("desk.cfg" if name == "desk" else "default.cfg"))
    if name == "multi-hap":
        cfg.haps_per_beam, cfg.regions_per_hap, cfg.users_per_region = 3, 4, 7
    elif name == "r128":
        cfg.haps_per_beam, cfg.regions_per_hap = 8, 8
    return cfg


def _gain_topology(name, frozen):
    """The scenario's topology, its fading frozen or not, with its user
    coordinates made read-only."""
    cfg = _scenario(name)
    cfg.fading_frozen = frozen
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
    topo = _gain_topology(name, frozen=False)
    moves = np.random.default_rng(7)
    for seed in range(4):
        pos = _moved_positions(topo, moves)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive steps share one generator
            got = link_gains(topo, pos, rng_got)
            assert _same_bits(got, link_gains_loop(topo, pos, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("name", ["desk", "default", "multi-hap"])
def test_frozen_link_gains_match_the_loop_oracle_and_draw_nothing(name):
    topo = _gain_topology(name, frozen=True)
    moves = np.random.default_rng(8)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for _ in range(3):
        pos = _moved_positions(topo, moves)
        for gen in (None, rng):
            got = link_gains(topo, pos, gen)
            assert _same_bits(got, link_gains_loop(topo, pos, None, frozen=True))
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("frozen", [False, True])
def test_link_gains_match_the_loop_oracle_at_128_regions(frozen):
    topo = _gain_topology("r128", frozen)
    assert (len(topo.nodes), topo.cfg.num_users) == (384, 1280)
    pos = _moved_positions(topo, np.random.default_rng(9))
    rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
    got = link_gains(topo, pos, rng_got)
    assert _same_bits(got, link_gains_loop(topo, pos, rng_want, frozen=frozen))
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _assert_same_bundle(got, want, cfg, t):
    """The same keys in the same order, and the same dtypes, shapes and bytes."""
    ds, dh, _ = cfg.decision_intervals
    epochs = ["global"] * (t % ds == 0) + ["regional"] * (t % dh == 0)
    assert list(got) == list(want) == epochs + ["local"]
    if "global" in want:
        assert _same_bits(got["global"], want["global"])
    if "regional" in want:
        assert want["regional"].shape == (cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands)
        assert _same_bits(got["regional"], want["regional"])
    assert list(got["local"]) == list(want["local"])
    for key, arr in want["local"].items():
        assert _same_bits(got["local"][key], arr), key


@pytest.mark.parametrize("name", ["desk", "default", "multi-hap", "r128"])
def test_greedy_hdrl_matches_the_per_entity_loop(name):
    # the tier-wide mode_action must hand the env the per-entity bundle: the
    # same keys, dtypes, shapes and bytes, at global and regional epochs too
    cfg = _scenario(name)
    cfg.decision_intervals = (6, 3, 1)
    cfg.steps_per_episode = 13
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("hdrl", cfg)
    obs = env.reset(seed=4)
    agent.begin_episode(env)
    for t in range(cfg.steps_per_episode):
        want = hdrl_greedy_act_loop(agent, obs, t)
        got = agent.act(obs, t, explore=False)
        _assert_same_bundle(got, want, cfg, t)
        obs, *_ = env.step(got)


@pytest.mark.parametrize("explore", [False, True], ids=["greedy", "exploring"])
@pytest.mark.parametrize("kind", ["sadrl", "madrl", "hdrl"])
@pytest.mark.parametrize("name", ["desk", "default"])
def test_policy_slot_decide_matches_the_per_agent_loops(name, kind, explore):
    # the learned agents decide through _PolicySlot.decide (sadrl's greedy
    # step decodes on its own); over a whole episode each must hand the env
    # the loop's bundle, leave the generator where the loop leaves it, and
    # record as each slot's latest epoch the loop's pending decisions
    cfg = _scenario(name)
    cfg.decision_intervals = (6, 3, 1)
    cfg.steps_per_episode = 13
    env = SpectrumSharingEnv(cfg)
    agent = make_agent(kind, cfg)
    twin = copy.deepcopy(agent)
    books = slot_books(twin)
    obs = env.reset(seed=4)
    agent.begin_episode(env)
    begin_episode_loop(books)
    started = 0
    for t in range(cfg.steps_per_episode):
        want = ACT_LOOPS[kind](twin, books, obs, t, explore)
        got = agent.act(obs, t, explore)
        _assert_same_bundle(got, want, cfg, t)
        assert agent.rng.bit_generator.state == twin.rng.bit_generator.state
        for slot_name, slot in agent.slots.items():
            traj, want_pending = slot.traj, books[slot_name].pending
            entities = range(len(traj.logp[-1])) if len(traj) else []
            assert list(entities) == list(want_pending), slot_name
            for entity, p in want_pending.items():
                for field in ("obs", "cat", "cont", "logp", "value"):
                    got_v, want_v = getattr(traj, field)[-1][entity], getattr(p, field)
                    assert _same_bits(got_v, want_v), (slot_name, entity, field)
            started += len(want_pending)
        obs, rewards, _, truncated, _ = env.step(got)
        agent.record(rewards)
        RECORD_LOOPS[kind](twin, books, rewards, truncated)
    assert truncated
    assert (started > 0) == explore


def _assert_same_batch(got: dict, want: dict, where) -> None:
    assert list(got) == list(want), where
    for key, arr in want.items():
        assert _same_bits(got[key], arr), (where, key)


@pytest.mark.parametrize(
    "kind, intervals",
    [("sadrl", (6, 3, 1)), ("madrl", (6, 3, 1)), ("hdrl", (6, 3, 1)), ("hdrl", (10, 10, 1))],
    ids=["sadrl", "madrl", "hdrl", "hdrl-10"],
)
@pytest.mark.parametrize("name", ["desk", "default"])
def test_ppo_update_batches_match_the_per_entity_bookkeeping(name, kind, intervals, monkeypatch):
    # four training episodes of 13 steps, whose last epochs are short; every
    # batch the agent hands ppo_update must be, bit for bit, the one the
    # per-entity pending/flush bookkeeping builds, and a batch size of 16
    # makes every slot update at least once.  An epoch of 10 steps averages
    # 10 rewards: numpy sums 8 or more contiguous values pairwise, so a sum
    # over the epoch axis instead would change the bits.
    cfg = _scenario(name)
    cfg.decision_intervals = intervals
    cfg.steps_per_episode = 13
    cfg.ppo = dataclasses.replace(cfg.ppo, batch_size=16, minibatch_size=8, sgd_iters=2)
    env = SpectrumSharingEnv(cfg)
    # built, not deep-copied: a copy's params would stop being views of the
    # flat vector its Adam updates
    agent, twin = make_agent(kind, cfg), make_agent(kind, cfg)
    books = slot_books(twin)
    names = {id(slot.net): name for who in (agent, twin) for name, slot in who.slots.items()}
    handed = []
    update = specshare.ppo.ppo_update

    def recording(net, batch, *args, **kwargs):
        handed.append((names[id(net)], {k: v.copy() for k, v in batch.items()}))
        return update(net, batch, *args, **kwargs)

    monkeypatch.setattr(specshare.ppo, "ppo_update", recording)
    updated = set()
    for episode in range(4):
        obs = env.reset(seed=episode)
        agent.begin_episode(env)
        twin.begin_episode(env)
        begin_episode_loop(books)
        for t in range(cfg.steps_per_episode):
            want = ACT_LOOPS[kind](twin, books, obs, t, True)
            got = agent.act(obs, t, True)
            _assert_same_bundle(got, want, cfg, t)
            obs, rewards, _, truncated, _ = env.step(got)
            agent.record(rewards)
            RECORD_LOOPS[kind](twin, books, rewards, truncated)
        agent.end_episode()
        got_batches, handed[:] = handed[:], []
        end_episode_loop(twin, books)
        want_batches, handed[:] = handed[:], []
        assert [n for n, _ in got_batches] == [n for n, _ in want_batches], episode
        for (slot_name, got_batch), (_, want_batch) in zip(got_batches, want_batches):
            _assert_same_batch(got_batch, want_batch, (episode, slot_name))
            updated.add(slot_name)
        assert agent.rng.bit_generator.state == twin.rng.bit_generator.state
        assert (agent.updates, agent.episodes_trained) == (twin.updates, twin.episodes_trained)
    assert updated == set(agent.slots)
    for slot_name, slot in agent.slots.items():
        assert _same_bits(slot.net.flat, twin.slots[slot_name].net.flat), slot_name
