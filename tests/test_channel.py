import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specshare import channel
from specshare.agents import make_agent
from specshare.allocation import AllocationState
from specshare.channel import (
    associate_users,
    co_channel_interference,
    compute_snapshot,
    gain_to_unit,
    link_gains,
    path_loss_db,
    rayleigh_power,
)
from specshare.config import ScenarioConfig, load_config
from specshare.env import SpectrumSharingEnv
from specshare.topology import build_topology, dbm_to_watts
from topo_helpers import region_of_user

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    assoc = associate_users(topo, topo.own_region_gains(gains), regional)
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
    rng = np.random.default_rng(5)
    for scope in ("global", "region"):
        cfg = _desk_cfg()
        cfg.interference_scope = scope
        topo = build_topology(cfg, np.random.default_rng(1))
        power = dbm_to_watts([n.tx_power_dbm for n in topo.transmitters()])
        for _ in range(20):
            state = _random_state(cfg, rng)
            gains = 10 ** rng.uniform(-12, -6, size=(cfg.num_transmitters, cfg.num_users))
            assoc = associate_users(topo, topo.own_region_gains(gains), state.regional)
            got = co_channel_interference(topo, gains, state, assoc)
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
    snap = compute_snapshot(topo, state, tx_pos, rng=None)[0]
    replay = compute_snapshot(topo, state, tx_pos, gains=snap.gains)[0]
    assert np.array_equal(replay.gains, snap.gains)
    assert np.array_equal(replay.association, snap.association)
    assert np.array_equal(replay.interference, snap.interference)


# -- the interference product in user chunks --------------------------------------


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    tx=st.integers(1, 512),
    subbands=st.integers(1, 16),
    chunks=st.integers(0, 5),
    rest=st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(3, 400)),
    seed=st.integers(0, 2**32 - 1),
)
# the 128-region product (384 x 1280 x 10), which OpenBLAS runs on two
# threads in one call
@example(tx=384, subbands=10, chunks=18, rest=56, seed=0)
# one user past a multiple of the chunk
@example(tx=100, subbands=4, chunks=2, rest=1, seed=1)
# sums longer than one pass: the single product is kept
@example(tx=448, subbands=10, chunks=5, rest=5, seed=2)
def test_chunked_interference_product_matches_one_gemm_bitwise(tx, subbands, chunks, rest, seed):
    # the global interference product runs in user chunks so that no BLAS
    # thread wakes for it; that only keeps the outputs byte-identical if
    # every chunk's rows get exactly the numbers of the single product.
    # Users below, at, one past and anywhere between multiples of the chunk;
    # transmitters on both sides of the one-pass sum length
    rows = channel._BLAS_SERIAL_MNK // (tx * subbands)
    users = max(1, chunks * rows + min(rest, rows - 1))
    rng = np.random.default_rng(seed)
    gains = 10 ** rng.uniform(-14, -6, size=(tx, users))
    psd = rng.uniform(0.0, 0.04, size=(tx, subbands)) * (rng.random((tx, subbands)) < 0.7)
    got = channel._serial_matmul(gains.T, psd)
    want = gains.T @ psd
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- the channel worker ------------------------------------------------------------


def _large_topology():
    """A scenario just above the overlap cut-off (12,000 links), unfrozen."""
    cfg = load_config(CONFIGS / "default.cfg")
    cfg.haps_per_beam, cfg.regions_per_hap = 2, 5
    topo = build_topology(cfg, np.random.default_rng(2))
    assert cfg.num_transmitters * cfg.num_users > channel.OVERLAP_MIN_LINKS
    return topo


@pytest.mark.parametrize("name", ["desk", "default"])
def test_small_scenarios_start_no_thread(name, monkeypatch):
    def no_worker():
        raise AssertionError("the channel worker was asked for")

    monkeypatch.setattr(channel, "_channel_worker", no_worker)
    before = threading.active_count()
    cfg = load_config(CONFIGS / f"{name}.cfg")
    assert cfg.num_transmitters * cfg.num_users <= channel.OVERLAP_MIN_LINKS
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("random", cfg)
    obs = env.reset(seed=1)
    for t in range(4):
        obs = env.step(agent.act(obs, t, explore=True))[0]
    assert threading.active_count() == before


def test_small_scenarios_do_not_import_the_executor():
    # the worker's module is imported on first use only, so a desk or default
    # run does not carry it (~0.6 MB resident); a fresh interpreter, because
    # pytest itself may have imported it
    code = (
        "import sys\n"
        "from specshare.agents import make_agent\n"
        "from specshare.config import load_config\n"
        "from specshare.env import SpectrumSharingEnv\n"
        "for name in ('desk', 'default'):\n"
        f"    cfg = load_config({str(CONFIGS)!r} + '/' + name + '.cfg')\n"
        "    env, agent = SpectrumSharingEnv(cfg), make_agent('random', cfg)\n"
        "    obs = env.reset(seed=1)\n"
        "    for t in range(3):\n"
        "        obs = env.step(agent.act(obs, t, explore=True))[0]\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(CONFIGS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_large_calls_reuse_one_worker():
    topo = _large_topology()
    pos = np.stack([n.position for n in topo.transmitters()])
    rng = np.random.default_rng(0)
    link_gains(topo, pos, rng)
    worker = channel._worker
    for _ in range(3):
        link_gains(topo, pos, rng)
    assert channel._worker is worker
    names = [t.name for t in threading.enumerate() if t.name.startswith("specshare-channel")]
    assert len(names) == 1


def test_zero_distance_on_the_worker_raises_in_the_caller(monkeypatch):
    topo = _large_topology()
    pos = np.stack([n.position for n in topo.transmitters()])
    on = []
    path_loss = channel._path_loss

    def recorded(*args):
        on.append(threading.current_thread())
        return path_loss(*args)

    monkeypatch.setattr(channel, "_path_loss", recorded)
    bad = pos.copy()
    bad[0] = topo.user_positions[5]  # a transmitter exactly on a user
    with pytest.raises(ValueError, match="distance must be > 0"):
        link_gains(topo, bad, np.random.default_rng(1))
    assert on[-1] is not threading.current_thread()
    # the worker survives the error, and the next call is the one a fresh
    # generator gives
    got = link_gains(topo, pos, np.random.default_rng(1))
    monkeypatch.setattr(channel, "OVERLAP_MIN_LINKS", 10**12)
    want = link_gains(topo, pos, np.random.default_rng(1))
    assert on[-1] is threading.current_thread()
    assert got.tobytes() == want.tobytes()


def test_concurrent_callers_share_the_worker(monkeypatch):
    # callers on several threads queue their passes on the one worker; each
    # must still get the gains its own generator gives inline
    topo = _large_topology()
    pos = np.stack([n.position for n in topo.transmitters()])
    with monkeypatch.context() as inline:
        inline.setattr(channel, "OVERLAP_MIN_LINKS", 10**12)
        want = [[link_gains(topo, pos, rng) for _ in range(3)] for rng in map(np.random.default_rng, range(4))]
    got = [[] for _ in want]

    def caller(i):
        rng = np.random.default_rng(i)
        for _ in range(3):
            got[i].append(link_gains(topo, pos, rng))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(want))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for mine, theirs in zip(got, want):
        assert [g.tobytes() for g in mine] == [g.tobytes() for g in theirs]
