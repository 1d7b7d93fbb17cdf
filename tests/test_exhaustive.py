"""The batched exhaustive search must pick the loop oracle's optimum bit for bit.

``exhaustive_solve`` scores every joint candidate in chunks of array work;
``reference_loops.exhaustive_solve_loop`` walks the same candidates one at
a time.  Both must return the same eta and fairness (the same floats), the
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
from specshare.agents import count_joint_candidates, exhaustive_solve, make_agent
from specshare.config import ScenarioConfig, config_from_dict, load_config
from specshare.env import SpectrumSharingEnv
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
    assert list(got["regional"]) == list(want["regional"])
    for region, mat in want["regional"].items():
        assert _same_bits(got["regional"][region], mat), region
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


def test_agent_solves_at_every_regional_epoch(monkeypatch):
    cfg = _with(load_config(DESK_CFG), steps_per_episode=25, decision_intervals=[10, 5, 1])
    solves = []

    def counting_solve(c):
        solves.append(c)
        return exhaustive_solve(c)

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
