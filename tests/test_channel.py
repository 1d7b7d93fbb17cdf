import numpy as np
import pytest

from specshare.allocation import AllocationState
from specshare.channel import (
    associate_users,
    co_channel_interference,
    compute_snapshot,
    dbm_to_watts,
    gain_to_unit,
    link_gains,
    path_loss_db,
    rayleigh_power,
)
from specshare.config import ScenarioConfig
from specshare.topology import build_topology
from topo_helpers import region_of_user

# 20 log10(1000) + 20 log10(28e9) - 147.55, evaluated independently
FSPL_1KM_28GHZ_DB = 121.39316062684437


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


def test_path_loss_reference_values():
    # at d = 1 m, f = 1 Hz both log terms vanish
    assert path_loss_db(1.0, 1.0) == pytest.approx(-147.55, abs=1e-12)
    assert path_loss_db(1000.0, 28e9) == pytest.approx(FSPL_1KM_28GHZ_DB, abs=1e-9)
    # doubling the distance costs 20 log10(2) dB
    delta = path_loss_db(2000.0, 28e9) - path_loss_db(1000.0, 28e9)
    assert delta == pytest.approx(6.020599913279624, abs=1e-9)


def test_path_loss_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 1e9)
    with pytest.raises(ValueError):
        path_loss_db(100.0, 0.0)


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(16.0) == pytest.approx(10 ** (-1.4), rel=1e-12)


def test_gain_to_unit_range_and_midpoint():
    assert gain_to_unit(10.0 ** (-110 / 10)) == pytest.approx(0.5)
    assert gain_to_unit(1.0) == 1.0
    assert gain_to_unit(1e-30) == 0.0
    rng = np.random.default_rng(0)
    g = 10 ** (rng.uniform(-25, 0, size=1000))
    u = gain_to_unit(g)
    assert ((u >= 0) & (u <= 1)).all()


def test_fading_factors_have_unit_mean():
    rng = np.random.default_rng(3)
    ray = rayleigh_power(rng, size=200_000)
    assert ray.mean() == pytest.approx(1.0, abs=0.02)


def test_frozen_gains_are_pure_path_loss():
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(0))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    gains = link_gains(topo, tx_pos, rng=None)
    d = np.linalg.norm(tx_pos[:, None, :] - topo.user_positions[None, :, :], axis=2)
    expected = 10.0 ** (-path_loss_db(d, cfg.carrier_freq) / 10.0)
    assert np.allclose(gains, expected, rtol=0, atol=0)


def test_unfrozen_gains_are_random_but_seeded():
    cfg = _desk_cfg()
    cfg.fading_frozen = False
    topo = build_topology(cfg, np.random.default_rng(0))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    g1 = link_gains(topo, tx_pos, np.random.default_rng(9))
    g2 = link_gains(topo, tx_pos, np.random.default_rng(9))
    g3 = link_gains(topo, tx_pos, np.random.default_rng(10))
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    assert (g1 <= 1.0).all() and (g1 > 0).all()


def test_unfrozen_gains_need_a_generator():
    cfg = _desk_cfg()
    cfg.fading_frozen = False
    topo = build_topology(cfg, np.random.default_rng(0))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    with pytest.raises(ValueError, match="rng"):
        link_gains(topo, tx_pos, rng=None)


def test_association_picks_best_granted_node_per_region():
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(0))
    regional = np.zeros((cfg.num_transmitters, cfg.num_subbands), dtype=np.int8)
    regional[0, 0] = 1
    regional[2, 1] = 1  # region 0: rows 0 and 2 hold grants; region 1: none
    gains = np.full((cfg.num_transmitters, cfg.num_users), 1e-12)
    gains[0, 0] = 1e-6
    gains[2, 0] = 1e-7  # user 0 prefers row 0
    gains[0, 1] = 1e-9
    gains[2, 1] = 1e-8  # user 1 prefers row 2
    gains[1, 2] = 1e-3  # row 1 holds no grant, so it cannot serve user 2
    assoc = associate_users(topo, gains, regional)
    assert assoc[0] == 0
    assert assoc[1] == 2
    assert assoc[2] in (0, 2)
    assert (assoc[cfg.users_per_region :] == -1).all()


def _random_state(cfg, rng):
    state = AllocationState.zeros(cfg)
    for n in range(cfg.num_subbands):
        b = rng.integers(0, cfg.beams + 1)
        if b > 0:
            state.global_alloc[b - 1, n] = 1
    m = cfg.nodes_per_region
    for region in range(cfg.num_regions):
        beam = topo_beam(cfg, region)
        for n in range(cfg.num_subbands):
            if state.global_alloc[beam, n] == 1 and rng.random() < 0.8:
                row = region * m + rng.integers(0, m)
                state.regional[row, n] = 1
    state.beta = (state.regional * (rng.random(state.regional.shape) < 0.9)).astype(np.int8)
    alpha = rng.random(state.alpha.shape)
    used = (state.beta * alpha).sum(axis=1, keepdims=True)
    state.alpha = alpha / np.maximum(used, 1.0)
    return state


def topo_beam(cfg, region):
    return (region // cfg.regions_per_hap) // cfg.haps_per_beam


def test_interference_matches_explicit_sum():
    # straight-line reference: sum over co-channel transmitters minus the
    # serving node, written with plain loops
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(5)
    power = dbm_to_watts([n.tx_power_dbm for n in topo.transmitters()])
    for scope in ("global", "region"):
        for _ in range(20):
            state = _random_state(cfg, rng)
            gains = 10 ** rng.uniform(-12, -6, size=(cfg.num_transmitters, cfg.num_users))
            assoc = associate_users(topo, gains, state.regional)
            got = co_channel_interference(topo, gains, state, power, assoc, scope)
            want = np.zeros((cfg.num_users, cfg.num_subbands))
            for u in range(cfg.num_users):
                for n in range(cfg.num_subbands):
                    total = 0.0
                    for row in range(cfg.num_transmitters):
                        if row == assoc[u]:
                            continue
                        if scope == "region" and row // cfg.nodes_per_region != region_of_user(topo, u):
                            continue
                        if state.regional[row, n] and state.beta[row, n]:
                            total += gains[row, u] * state.alpha[row, n] * power[row]
                    want[u, n] = total
            assert np.allclose(got, want, rtol=1e-12, atol=1e-30)


def test_snapshot_accepts_precomputed_gains():
    cfg = _desk_cfg()
    topo = build_topology(cfg, np.random.default_rng(0))
    tx_pos = np.stack([n.position for n in topo.transmitters()])
    state = _random_state(cfg, np.random.default_rng(6))
    snap = compute_snapshot(topo, state, tx_pos, rng=None)
    replay = compute_snapshot(topo, state, tx_pos, gains=snap.gains)
    assert np.array_equal(replay.gains, snap.gains)
    assert np.array_equal(replay.association, snap.association)
    assert np.array_equal(replay.interference, snap.interference)
    assert np.array_equal(replay.tx_power_w, snap.tx_power_w)
