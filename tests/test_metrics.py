import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshare.allocation import AllocationState
from specshare.channel import compute_snapshot
from specshare.config import RewardWeights, ScenarioConfig
from specshare.metrics import (
    compose_rewards,
    compute_step_metrics,
    jain_fairness,
    qos_violation,
    sinr,
    spectral_efficiency,
    uav_penalty,
    user_rate,
)
from specshare.topology import TIER_UAV, build_topology, dbm_to_watts
from topo_helpers import random_feasible_state, region_transmitter_rows, small_scenarios

LOG2_101 = 6.658211482751795


def test_sinr_linear_arithmetic():
    assert sinr(1e-9, 0.5, 1.0, 0.0, 1e-10) == pytest.approx(5.0, rel=1e-12)
    # interference adds to the noise floor
    assert sinr(1e-9, 0.5, 1.0, 4e-10, 1e-10) == pytest.approx(1.0, rel=1e-12)


def test_user_rate_reference_points():
    # one subband of 200 MHz / 10 at SINR 1 carries exactly 20 Mbps
    sinrs = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 3.0], [0.0, 0.0]])
    assert user_rate(sinrs, 200e6, 10) == pytest.approx([20e6, 40e6, 60e6, 0.0], rel=1e-12)


def test_spectral_efficiency_normalization():
    assert spectral_efficiency(np.array([[1e8, 1e8]]), 200e6) == pytest.approx([1.0], rel=1e-12)
    assert spectral_efficiency(np.zeros((1, 0)), 200e6) == [0.0]


def test_jain_reference_points():
    rates = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    assert jain_fairness(rates) == pytest.approx([1.0, 0.25], rel=1e-12)
    assert jain_fairness(np.array([[2.0, 1.0]])) == pytest.approx([0.9], rel=1e-12)
    # all-zero rate vector is defined as perfectly fair
    assert jain_fairness(np.zeros((1, 7))) == [1.0]


def test_jain_properties_under_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        k = int(rng.integers(1, 12))
        r = rng.random((1, k)) * 10 ** rng.integers(0, 9)
        f = jain_fairness(r)[0]
        assert 1.0 / k - 1e-12 <= f <= 1.0 + 1e-12
        # scale invariance
        assert jain_fairness(r * 3.7)[0] == pytest.approx(f, rel=1e-9)


def test_qos_violation_is_worst_user_shortfall():
    rates = np.array([[5.0, 2.0, 9.0]])
    assert qos_violation(rates, 4.0) == pytest.approx([2.0])
    assert qos_violation(rates, 1.0) == [0.0]


def test_uav_penalty_boundary_is_inside():
    # three one-UAV regions (inside, on the edge, outside), then one region
    # with a UAV inside and one outside
    bounds = np.array([[0.0, 0.0, 100.0, 50.0]])
    inside = [10.0, 10.0, 30.0]
    on_edge = [0.0, 50.0, 30.0]
    outside = [-1.0, 10.0, 30.0]
    one_each = np.array([[inside], [on_edge], [outside]])
    assert np.array_equal(uav_penalty(one_each, np.repeat(bounds, 3, axis=0)), [0.0, 0.0, 1.0])
    assert uav_penalty(np.array([[inside, outside]]), bounds) == pytest.approx([0.5])


def _reward_scales(cfg):
    """The one-subband rate and the all-subband efficiency at SINR 100."""
    return cfg.subband_bandwidth * LOG2_101, cfg.num_subbands * LOG2_101


def _topo(cfg):
    """The scenario's topology: ``compose_rewards`` reads its reward scales."""
    return build_topology(cfg, np.random.default_rng(0))


def test_reward_norms_from_default_config():
    # a region at the reference rate (or efficiency, or QoS shortfall) scores
    # its weight: the default config's scales are 20 MHz and 10 subbands
    # times log2(101)
    cfg = ScenarioConfig()
    zeros = np.zeros(cfg.num_regions)
    full = np.ones(cfg.num_regions)
    w = cfg.reward_weights
    r_l, _, _ = compose_rewards(_topo(cfg), full * 20e6 * LOG2_101, zeros, zeros, zeros, zeros)
    assert r_l == pytest.approx(w.w_rate * full, rel=1e-12)
    r_l, _, _ = compose_rewards(_topo(cfg), zeros, full * 10 * LOG2_101, zeros, zeros, zeros)
    assert r_l == pytest.approx(w.w_eff * full, rel=1e-12)
    r_l, _, _ = compose_rewards(_topo(cfg), zeros, zeros, zeros, zeros, full * 20e6 * LOG2_101)
    assert r_l == pytest.approx(w.w_qos * full, rel=1e-12)


def test_zero_network_earns_only_the_fairness_term():
    cfg = ScenarioConfig()
    zeros = np.zeros(cfg.num_regions)
    r_l, r_h, r_s = compose_rewards(_topo(cfg), zeros, zeros, np.ones(cfg.num_regions), zeros, zeros)
    assert np.allclose(r_l, 0.5)  # w_fair * 1 with default weights
    assert np.allclose(r_h, 0.5)
    assert r_s == pytest.approx(0.5)


def test_reward_composition_hand_example():
    weights = RewardWeights(w_rate=1.0, w_eff=1.5, w_fair=0.5, w_uav=-1.0, w_qos=-0.5)
    cfg = ScenarioConfig(beams=2, regions_per_hap=1, reward_weights=weights)
    rate_norm, eff_norm = _reward_scales(cfg)
    r_l, r_h, r_s = compose_rewards(
        _topo(cfg),
        region_rate_mean=np.array([2.0, 0.0]) * rate_norm,
        region_eta=np.array([2.0, 0.0]) * eff_norm,
        region_fairness=np.array([0.8, 1.0]),
        region_uav=np.array([0.0, 1.0]),
        region_qos=np.array([0.0, 0.5]) * rate_norm,
    )
    # region 0: 1*2 + 1.5*2 + 0.5*0.8 = 5.4; region 1: 0.5 - 1 - 0.25 = -0.75
    assert r_l == pytest.approx([5.4, -0.75], rel=1e-12)
    assert r_h == pytest.approx([5.4, -0.75], rel=1e-12)
    assert r_s == pytest.approx((5.4 - 0.75) / 2, rel=1e-12)


def test_hap_reward_averages_its_regions():
    weights = RewardWeights(w_rate=1.0, w_eff=0.0, w_fair=0.0, w_uav=0.0, w_qos=0.0)
    cfg = ScenarioConfig(beams=2, regions_per_hap=2, reward_weights=weights)
    rate_norm, _ = _reward_scales(cfg)
    r_l, r_h, r_s = compose_rewards(
        _topo(cfg), np.array([1.0, 3.0, 5.0, 7.0]) * rate_norm, np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4)
    )
    assert r_h == pytest.approx([2.0, 6.0])
    assert r_s == pytest.approx(4.0)


def _desk_cfg():
    cfg = ScenarioConfig()
    cfg.beams = 2
    cfg.haps_per_beam = 1
    cfg.regions_per_hap = 1
    cfg.uavs_per_region = 1
    cfg.users_per_region = 4
    cfg.num_subbands = 4
    cfg.fading_frozen = True
    cfg.validate()
    return cfg


def test_step_metrics_match_straight_line_reference():
    # independent re-derivation of every aggregate with plain loops;
    # the implementation must agree to near machine precision
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(2))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    rate_norm, eff_norm = _reward_scales(cfg)
    power = dbm_to_watts([n.tx_power_dbm for n in topo.transmitters()])
    w = cfg.reward_weights
    rng = np.random.default_rng(11)

    for trial in range(100):
        state = random_feasible_state(cfg, rng)
        pos = tx_pos.copy()
        pos[:, :2] += rng.normal(0, 300, size=(cfg.num_transmitters, 2))
        snap = compute_snapshot(topo, state, pos, rng=None)[0]
        got = compute_step_metrics(topo, state, snap, pos)

        per_band = cfg.total_bandwidth / cfg.num_subbands
        rates = np.zeros(cfg.num_users)
        for u in range(cfg.num_users):
            row = snap.association[u]
            if row < 0:
                continue
            for n in range(cfg.num_subbands):
                if state.regional[row, n] and state.beta[row, n]:
                    s = snap.gains[row, u] * state.alpha[row, n] * power[row]
                    g = s / (snap.interference[u, n] + cfg.noise_power_w)
                    rates[u] += per_band * np.log2(1.0 + g)
        assert np.allclose(got.user_rates, rates, rtol=1e-12, atol=1e-6)

        k = cfg.users_per_region
        exp_r_l = np.zeros(cfg.num_regions)
        for region in range(cfg.num_regions):
            rr = rates[region * k : (region + 1) * k]
            eta_r = rr.sum() / cfg.total_bandwidth
            fair_r = 1.0 if rr.sum() == 0 else rr.sum() ** 2 / (rr.size * (rr**2).sum())
            qos_r = max(0.0, cfg.r_min - rr.min())
            uav_rows = [
                r
                for r in region_transmitter_rows(topo, region)
                if topo.transmitters()[r].tier == TIER_UAV
            ]
            x0, y0, x1, y1 = topo.region_bounds[region]
            out = [
                not (x0 <= pos[r, 0] <= x1 and y0 <= pos[r, 1] <= y1) for r in uav_rows
            ]
            uav_r = float(np.mean(out)) if out else 0.0
            exp_r_l[region] = (
                w.w_rate * rr.mean() / rate_norm
                + w.w_eff * eta_r / eff_norm
                + w.w_fair * fair_r
                + w.w_uav * uav_r
                + w.w_qos * qos_r / rate_norm
            )
            assert got.region_eta[region] == pytest.approx(eta_r, rel=1e-12, abs=1e-15)
            assert got.region_fairness[region] == pytest.approx(fair_r, rel=1e-12)
            assert got.region_uav_penalty[region] == pytest.approx(uav_r)

        assert np.allclose(got.r_l, exp_r_l, rtol=1e-12, atol=1e-12)
        assert got.eta == pytest.approx(rates.sum() / cfg.total_bandwidth, rel=1e-12, abs=1e-15)
        assert got.r_avg == pytest.approx(rates.mean(), rel=1e-12, abs=1e-9)
        total = rates.sum()
        exp_fair = 1.0 if total == 0 else total**2 / (rates.size * (rates**2).sum())
        assert got.fairness == pytest.approx(exp_fair, rel=1e-12)
        exp_r_h = exp_r_l.reshape(-1, cfg.regions_per_hap).mean(axis=1)
        assert np.allclose(got.r_h, exp_r_h, rtol=1e-12, atol=1e-12)
        assert got.r_s == pytest.approx(exp_r_l.mean(), rel=1e-12, abs=1e-12)


def test_spectrum_utilization_counts_active_over_granted():
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(2))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    state = AllocationState.zeros(cfg)
    state.global_alloc[0, :2] = 1
    state.regional[0, 0] = 1
    state.regional[2, 1] = 1
    state.beta[0, 0] = 1  # one of the two granted pairs is actually radiating
    state.alpha[0, 0] = 0.5
    snap = compute_snapshot(topo, state, tx_pos, rng=None)[0]
    got = compute_step_metrics(topo, state, snap, tx_pos)
    assert got.spectrum_utilization == pytest.approx(0.5)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cfg=small_scenarios(), seed=st.integers(0, 2**32 - 1))
def test_step_metrics_on_random_scenarios_are_finite_and_bounded(cfg, seed):
    rng = np.random.default_rng(seed)
    topo = build_topology(cfg, rng)
    state = random_feasible_state(cfg, rng)
    pos = np.stack([n.position for n in topo.transmitters()])
    pos[topo.uav_rows, :2] += rng.normal(0, cfg.region_size[0] / 2, size=(topo.uav_rows.size, 2))
    snap = compute_snapshot(topo, state, pos, rng=rng)[0]
    got = compute_step_metrics(topo, state, snap, pos)

    for f in dataclasses.fields(got):
        assert np.isfinite(getattr(got, f.name)).all(), f.name
    assert (got.user_rates >= 0).all()
    k = cfg.users_per_region
    # Jain's index lies in [1/K, 1] up to rounding
    assert (got.region_fairness >= 1 / k - 1e-12).all() and (got.region_fairness <= 1 + 1e-12).all()
    assert 1 / cfg.num_users - 1e-12 <= got.fairness <= 1 + 1e-12
    assert ((got.region_uav_penalty >= 0) & (got.region_uav_penalty <= 1)).all()
    assert (got.region_qos >= 0).all()
    assert type(got.eta) is float
    assert got.eta == got.user_rates.sum() / cfg.total_bandwidth
