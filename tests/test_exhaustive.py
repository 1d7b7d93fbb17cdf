"""The batched exhaustive search must pick the loop oracle's optimum bit for bit.

``exhaustive_solve`` scores every distinct joint candidate in chunks of
array work; ``reference_loops.exhaustive_solve_loop`` walks the whole joint
space one candidate at a time.  Both must return the same eta and fairness (the same floats), the
same global, regional and local arrays (dtype, shape and bytes) and the
same candidate count.  Exact ties in eta and fairness are common (the
subbands are interchangeable under frozen fading), so these cases also pin
the tie rule: first in the loop's enumeration order.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specshare.agents
from reference_loops import exhaustive_solve_loop
from specshare.agents import JointSearch, count_joint_candidates, exhaustive_solve, make_agent
from specshare.config import ScenarioConfig, config_from_dict, load_config
from specshare.env import SpectrumSharingEnv
from specshare.topology import build_topology
from test_acceptance import DESK_CFG, _fuzz_configs

# the loop oracle costs about 0.1 ms per candidate
ORACLE_CANDIDATES = 1_100


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_solution(got, want):
    assert type(got["eta"]) is type(want["eta"]) is float
    assert type(got["fairness"]) is type(want["fairness"]) is float
    assert got["eta"] == want["eta"]
    assert got["fairness"] == want["fairness"]
    assert got["candidates"] == want["candidates"]
    assert _same_bits(got["global"], want["global"])
    assert _same_bits(got["regional"], want["regional"])
    assert list(got["local"]) == list(want["local"])
    for name, arr in want["local"].items():
        assert _same_bits(got["local"][name], arr), name


def _with(cfg, **changes):
    data = cfg.to_dict()
    data.update(changes)
    return config_from_dict(data)


@pytest.mark.parametrize(
    "seed, scope", [(seed, "global") for seed in range(6)] + [(0, "region"), (3, "region")]
)
def test_desk_matches_loop_oracle(seed, scope):
    cfg = _with(load_config(DESK_CFG), seed=seed, interference_scope=scope)
    assert count_joint_candidates(cfg) == 9**4
    _assert_same_solution(exhaustive_solve(cfg), exhaustive_solve_loop(cfg))


def test_criterion_1_scenarios_match_loop_oracle():
    # every criterion-1 fuzz scenario small enough for the oracle, frozen,
    # under both scopes: the exhaustive kind's twelve and about two dozen of
    # the other kinds', which bring two regions per beam and three subbands
    rng = np.random.default_rng(1234)
    kinds = ("random", "exhaustive", "sadrl", "madrl", "hdrl")
    pool = [cfg for kind in kinds for cfg in _fuzz_configs(rng, kind, 12)]
    pool = [cfg for cfg in pool if count_joint_candidates(cfg) <= ORACLE_CANDIDATES]
    assert len(pool) >= 30
    assert any(cfg.haps_per_beam * cfg.regions_per_hap == 2 for cfg in pool)
    assert any(cfg.num_subbands == 3 for cfg in pool)
    for base in pool:
        for scope in ("global", "region"):
            cfg = _with(base, fading_frozen=True, interference_scope=scope)
            _assert_same_solution(exhaustive_solve(cfg), exhaustive_solve_loop(cfg))


@pytest.mark.parametrize("haps_per_beam, regions_per_hap", [(1, 2), (2, 1)])
@pytest.mark.parametrize("scope", ["global", "region"])
def test_two_regions_per_beam_match_loop_oracle(haps_per_beam, regions_per_hap, scope):
    cfg = _with(
        ScenarioConfig(),
        beams=2 if haps_per_beam == 2 else 1,
        haps_per_beam=haps_per_beam,
        regions_per_hap=regions_per_hap,
        uavs_per_region=1,
        users_per_region=3,
        num_subbands=2,
        fading_frozen=True,
        interference_scope=scope,
        region_size=[400.0, 400.0],
        seed=11,
    )
    _assert_same_solution(exhaustive_solve(cfg), exhaustive_solve_loop(cfg))


def test_chunk_size_changes_no_bit(monkeypatch):
    cfg = _with(load_config(DESK_CFG), seed=4)
    want = exhaustive_solve(cfg)
    for chunk in (1, 7, 6561, 10_000):
        monkeypatch.setattr(specshare.agents, "EXHAUSTIVE_CHUNK", chunk)
        _assert_same_solution(exhaustive_solve(cfg), want)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    beams=st.integers(1, 2),
    regions_per_hap=st.integers(1, 2),
    num_subbands=st.integers(1, 3),
    users_per_region=st.integers(1, 3),
    scope=st.sampled_from(["global", "region"]),
    region_size=st.sampled_from([400.0, 2000.0]),
    seed=st.integers(0, 999),
)
def test_batched_solve_equals_loop_on_tiny_scenarios(
    beams, regions_per_hap, num_subbands, users_per_region, scope, region_size, seed
):
    cfg = _with(
        ScenarioConfig(),
        beams=beams,
        haps_per_beam=1,
        regions_per_hap=regions_per_hap,
        uavs_per_region=1,
        users_per_region=users_per_region,
        num_subbands=num_subbands,
        fading_frozen=True,
        interference_scope=scope,
        region_size=[region_size, region_size],
        seed=seed,
    )
    assume(count_joint_candidates(cfg) <= ORACLE_CANDIDATES)
    _assert_same_solution(exhaustive_solve(cfg), exhaustive_solve_loop(cfg))


def _full_subband_states(topo) -> list[tuple[int, tuple, bytes]]:
    """Every subband state of the joint space in enumeration order: idle,
    then per beam every node digit combination over the beam's regions (the
    first region least significant), as (grant, node digits, regional column)."""
    cfg = topo.cfg
    m = cfg.nodes_per_region
    idle = np.zeros(cfg.num_transmitters, dtype=np.int8)
    states = [(0, (), idle.tobytes())]
    for beam in range(cfg.beams):
        regions = [r for r in range(cfg.num_regions) if topo.region_beam[r] == beam]
        for combo in range((m + 1) ** len(regions)):
            digits = tuple(combo // (m + 1) ** i % (m + 1) for i in range(len(regions)))
            column = idle.copy()
            for region, digit in zip(regions, digits):
                if digit:
                    column[region * m + digit - 1] = 1
            states.append((beam + 1, digits, column.tobytes()))
    return states


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    beams=st.integers(1, 2),
    haps_per_beam=st.integers(1, 2),
    regions_per_hap=st.integers(1, 2),
    uavs_per_region=st.integers(1, 2),
    num_subbands=st.integers(1, 3),
    seed=st.integers(0, 999),
)
def test_search_scores_each_distinct_subband_state_once(
    beams, haps_per_beam, regions_per_hap, uavs_per_region, num_subbands, seed
):
    # a subband granted to a beam whose nodes all leave it unused has the
    # idle column, so it scores as idle; every other state is scored once
    cfg = _with(
        ScenarioConfig(),
        beams=beams,
        haps_per_beam=haps_per_beam,
        regions_per_hap=regions_per_hap,
        uavs_per_region=uavs_per_region,
        users_per_region=1,
        num_subbands=num_subbands,
        fading_frozen=True,
        seed=seed,
    )
    full_count = count_joint_candidates(cfg)
    cfg = _with(cfg, exhaustive_cap=full_count)
    topo = build_topology(cfg, np.random.default_rng(cfg.seed))
    search = JointSearch(topo)
    full = _full_subband_states(topo)
    idle = full[0][2]
    dropped = [s for s in full if s[0] and not any(s[1])]
    kept = [s for s in full if not (s[0] and not any(s[1]))]
    assert len(dropped) == beams
    assert all(column == idle for _, _, column in dropped)
    assert [column for _, _, column in kept] == [c.tobytes() for c in search.columns]
    assert len({column for _, _, column in kept}) == len(kept)
    assert search.grant.tolist() == [grant for grant, _, _ in kept]
    per_beam = (cfg.nodes_per_region + 1) ** (haps_per_beam * regions_per_hap)
    assert search.states == len(kept) == 1 + beams * (per_beam - 1)
    assert search.scored == (1 + beams * (per_beam - 1)) ** num_subbands
    assert full_count == search.total == len(full) ** num_subbands == (1 + beams * per_beam) ** num_subbands


def test_agent_solves_at_every_regional_epoch(monkeypatch):
    cfg = _with(load_config(DESK_CFG), steps_per_episode=25, decision_intervals=[10, 5, 1])
    solves = []

    def counting_solve(*args, **prepared):
        solves.append(prepared)
        return exhaustive_solve(*args, **prepared)

    monkeypatch.setattr(specshare.agents, "exhaustive_solve", counting_solve)
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("exhaustive", cfg)
    want = exhaustive_solve(cfg)
    obs = env.reset(seed=0)
    agent.begin_episode(env)
    for t in range(cfg.steps_per_episode):
        bundle = agent.act(obs, t, explore=False)
        assert ("global" in bundle) == (t % 10 == 0)
        assert ("regional" in bundle) == (t % 5 == 0)
        obs, _, _, _, metrics = env.step(bundle)
        assert metrics.eta == want["eta"]
    assert len(solves) == 5
    _assert_same_solution(agent.solution, want)
    # the search is prepared once per env, on the env's own topology
    search = agent.search
    assert search.topo is env.topology
    env.reset(seed=1)
    agent.begin_episode(env)
    assert agent.search is search
