import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshare.allocation import (
    AllocationState,
    Violation,
    clamp_local,
    validate,
)
from specshare.config import ScenarioConfig
from specshare.topology import build_topology
from topo_helpers import random_feasible_state, small_scenarios


def _cfg():
    cfg = ScenarioConfig()
    cfg.validate()
    return cfg


def test_zero_state_is_feasible():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    assert validate(state, cfg) is None
    assert state.global_alloc.shape == (cfg.beams, cfg.num_subbands)
    assert state.regional.shape == (cfg.num_transmitters, cfg.num_subbands)


def test_shape_violation():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc = np.zeros((cfg.beams + 1, cfg.num_subbands), dtype=np.int8)
    v = validate(state, cfg)
    assert v is not None and v.constraint == "shape"


def test_beam_conflict_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 3] = 1
    state.global_alloc[1, 3] = 1
    v = validate(state, cfg)
    assert v is not None
    assert v.constraint == "beam-conflict"
    assert v.where == (3,)


def test_region_conflict_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 0] = 1
    state.regional[0, 0] = 1
    state.regional[1, 0] = 1  # two nodes of region 0 on the same subband
    v = validate(state, cfg)
    assert v is not None and v.constraint == "region-conflict"


def test_grant_nesting_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.regional[0, 0] = 1  # beam 0 holds no grant on subband 0
    v = validate(state, cfg)
    assert v is not None and v.constraint == "grant-nesting"


def test_first_violation_follows_region_order():
    # region 0 (beam 0) uses a subband its beam was not granted, and region
    # 2 (beam 1) puts two nodes on one subband; region 0 comes first in the
    # loop order, so its grant-nesting fault is the one reported
    cfg = _cfg()
    m = cfg.nodes_per_region
    state = AllocationState.zeros(cfg)
    state.global_alloc[1, 1] = 1
    state.regional[0, 0] = 1
    state.regional[2 * m, 1] = 1
    state.regional[2 * m + 1, 1] = 1
    v = validate(state, cfg)
    assert v is not None
    assert (v.constraint, v.where) == ("grant-nesting", (0, 0))

    # the same two faults the other way round: the conflict is now first
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 1] = 1
    state.regional[0, 1] = 1
    state.regional[1, 1] = 1
    state.regional[2 * m, 0] = 1
    v = validate(state, cfg)
    assert v is not None
    assert (v.constraint, v.where) == ("region-conflict", (0, 1))


def test_non_binary_entry_in_float_regional_is_reported_as_binary():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 2] = 1
    state.regional = np.zeros((cfg.num_transmitters, cfg.num_subbands))  # float-typed
    state.regional[1, 2] = 1.0
    assert validate(state, cfg) is None
    state.regional[4, 2] = 0.5
    v = validate(state, cfg)
    assert v is not None
    assert (v.constraint, v.where) == ("binary", (4, 2))


def test_access_mask_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 0] = 1
    state.beta[0, 0] = 1  # beta on without a regional grant
    v = validate(state, cfg)
    assert v is not None and v.constraint == "access-mask"


def test_power_budget_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, 0] = 1
    state.global_alloc[0, 1] = 1
    state.regional[0, 0] = 1
    state.regional[0, 1] = 1
    state.beta[0, 0] = 1
    state.beta[0, 1] = 1
    state.alpha[0, 0] = 0.7
    state.alpha[0, 1] = 0.7
    v = validate(state, cfg)
    assert v is not None and v.constraint == "power-budget" and v.where == (0,)
    state.alpha[0, 1] = 0.3  # exactly at budget: feasible
    assert validate(state, cfg) is None


def test_inactive_alpha_does_not_count_against_budget():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.alpha[:] = 1.0  # beta is all zero, so no power is radiated
    assert validate(state, cfg) is None


def test_movement_limit_detected():
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.dp[2, 0] = cfg.uav_step + 1.0
    v = validate(state, cfg)
    assert v is not None and v.constraint == "movement-limit"


def test_nan_is_out_of_range():
    # every comparison with NaN is false, so "above the limit?" alone misses it
    cfg = _cfg()
    state = AllocationState.zeros(cfg)
    state.alpha[1, 3] = np.nan
    assert validate(state, cfg) == Violation("power-range", (1, 3), "alpha outside [0, 1]")
    state = AllocationState.zeros(cfg)
    state.dp[2, 1] = np.nan
    assert validate(state, cfg) == Violation("movement-limit", (2, 1), f"|dp| exceeds {cfg.uav_step} m")


def test_clamp_masks_binarizes_and_rescales():
    rng = np.random.default_rng(0)
    rows, n = 200, 6
    granted = (rng.random((rows, n)) < 0.5).astype(np.int8)
    raw_beta = rng.random((rows, n)) * 2 - 0.5
    raw_alpha = rng.random((rows, n)) * 3 - 1
    raw_dp = rng.normal(0, 30, size=(rows, 2))
    beta, alpha, dp = clamp_local(
        raw_beta, raw_alpha, raw_dp, granted, uav_step=10.0, is_uav=np.ones(rows, dtype=bool)
    )
    assert set(np.unique(beta)) <= {0, 1}
    assert (beta <= granted).all()
    assert (alpha >= 0).all() and (alpha <= 1).all()
    assert ((beta * alpha).sum(axis=1) <= 1.0 + 1e-9).all()
    assert (np.abs(dp) <= 10.0).all()


def test_clamp_is_idempotent_bitwise():
    rng = np.random.default_rng(1)
    rows, n = 200, 5
    granted = (rng.random((rows, n)) < 0.7).astype(np.int8)
    is_uav = np.ones(rows, dtype=bool)
    once = clamp_local(
        rng.random((rows, n)) * 2 - 0.5,
        rng.random((rows, n)) * 3,
        rng.normal(0, 30, size=(rows, 2)),
        granted,
        uav_step=10.0,
        is_uav=is_uav,
    )
    again = clamp_local(*once, granted, uav_step=10.0, is_uav=is_uav)
    for a, b in zip(once, again):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # bit-exact, not approx


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cfg=small_scenarios(), seed=st.integers(0, 2**32 - 1))
def test_clamp_on_random_stacks_is_feasible_and_idempotent(cfg, seed):
    # every node's raw action at once, under a random feasible grant
    rng = np.random.default_rng(seed)
    topo = build_topology(cfg, rng)
    state = random_feasible_state(cfg, rng)
    shape = state.alpha.shape
    alpha = rng.uniform(-1.0, 3.0, size=shape)
    alpha[rng.random(shape) < 0.2] = rng.choice([0.0, 1.0, 1e6])
    once = clamp_local(
        rng.uniform(-0.5, 1.5, size=shape),
        alpha,
        rng.normal(0, 3 * cfg.uav_step + 1, size=state.dp.shape),
        state.regional,
        cfg.uav_step,
        topo.is_uav,
    )
    state.beta, state.alpha, state.dp = once
    assert validate(state, cfg) is None
    assert not state.dp[~topo.is_uav].any()
    again = clamp_local(*once, state.regional, cfg.uav_step, topo.is_uav)
    for name, a, b in zip(("beta", "alpha", "dp"), once, again):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_clamp_zeroes_motion_for_ground_nodes():
    _, _, dp = clamp_local(
        np.ones((2, 3)), np.full((2, 3), 0.2), np.array([[4.0, -3.0], [4.0, -3.0]]),
        np.ones((2, 3), dtype=np.int8), uav_step=10.0, is_uav=np.array([False, True]),
    )
    assert np.array_equal(dp, [[0.0, 0.0], [4.0, -3.0]])


def test_allocation_dict_round_trip():
    cfg = _cfg()
    rng = np.random.default_rng(2)
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, ::2] = 1
    state.regional[0, 0] = 1
    state.beta[0, 0] = 1
    state.alpha = rng.random(state.alpha.shape)
    state.dp = rng.normal(0, 1, size=state.dp.shape)
    again = AllocationState.from_dict(state.to_dict())
    assert np.array_equal(again.global_alloc, state.global_alloc)
    assert np.array_equal(again.regional, state.regional)
    assert np.array_equal(again.beta, state.beta)
    assert np.array_equal(again.alpha, state.alpha)
    assert np.array_equal(again.dp, state.dp)
