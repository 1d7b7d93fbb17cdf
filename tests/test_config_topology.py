import dataclasses
from pathlib import Path

import numpy as np
import pytest

from specshare.config import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    load_config,
)
from specshare.topology import (
    TIER_TBS,
    TIER_UAV,
    TBS_MAST_HEIGHT_M,
    build_topology,
)
from topo_helpers import (
    beam_of_region,
    hap_of_region,
    region_of_hap,
    region_of_user,
    region_transmitter_rows,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_default_derived_counts():
    cfg = ScenarioConfig()
    assert cfg.num_haps == 2
    assert cfg.num_regions == 4
    assert cfg.nodes_per_region == 3  # 2 TBS + 1 UAV
    assert cfg.num_transmitters == 12
    assert cfg.num_users == 40
    assert cfg.subband_bandwidth == pytest.approx(20e6)
    # 10^((-174 - 30) / 10) W/Hz over one 20 MHz subband
    assert cfg.noise_power_w == pytest.approx(7.962143411069939e-14, rel=1e-12)


def test_default_cfg_file_matches_builtin_defaults():
    cfg = load_config(CONFIG_DIR / "default.cfg")
    assert cfg == ScenarioConfig()


def test_desk_cfg_loads_and_shrinks_the_scenario():
    cfg = load_config(CONFIG_DIR / "desk.cfg")
    assert cfg.beams == 2
    assert cfg.num_regions == 2
    assert cfg.num_subbands == 4
    assert cfg.users_per_region == 4
    assert cfg.fading_frozen is True
    assert cfg.steps_per_episode == 100
    cfg.validate()


def test_config_round_trip_through_dict():
    cfg = load_config(CONFIG_DIR / "desk.cfg")
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[radio]\nnum_subband = 4\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[radios]\nnum_subbands = 4\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_interval_ordering_enforced():
    cfg = ScenarioConfig()
    cfg.decision_intervals = (10, 50, 1)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_interval_divisibility_enforced():
    cfg = ScenarioConfig()
    cfg.decision_intervals = (50, 7, 1)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_hash_ignores_seed_and_episodes():
    a = ScenarioConfig()
    b = dataclasses.replace(a, seed=123, episodes=7)
    assert a.config_hash() == b.config_hash()
    c = dataclasses.replace(a, num_subbands=8)
    assert c.config_hash() != a.config_hash()


def test_comments_and_inline_comments_parse(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# full file comment\n[radio]\nnum_subbands = 5  # inline\n\n[run]\nseed = 3\n")
    cfg = load_config(p)
    assert cfg.num_subbands == 5
    assert cfg.seed == 3


def test_integer_keys_refuse_a_fraction(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[run]\nexhaustive_cap = 1e5\ndecision_intervals = 50, 10.0, 1\n")
    cfg = load_config(p)  # an integer written as a float still parses
    assert cfg.exhaustive_cap == 100_000 and type(cfg.exhaustive_cap) is int
    assert cfg.decision_intervals == (50, 10, 1)
    for section, line, key in [
        ("topology", "beams = 2.5", "beams"),
        ("run", "decision_intervals = 50.7, 10, 1", "decision_intervals"),
        ("ppo", "batch_size = inf", "batch_size"),
    ]:
        p.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(p)


def test_negative_seed_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[run]\nseed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    data = ScenarioConfig().to_dict()
    data["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(data)


def test_decision_intervals_need_three_values():
    data = ScenarioConfig().to_dict()
    data["decision_intervals"] = [10, 1]
    with pytest.raises(ConfigError, match="decision_intervals"):
        config_from_dict(data)


# -- topology ----------------------------------------------------------------


def _topo(cfg=None, seed=0):
    cfg = cfg or ScenarioConfig()
    return cfg, build_topology(cfg, np.random.default_rng(seed))


def test_transmitter_layout_is_region_major():
    cfg, topo = _topo()
    txs = topo.transmitters()
    assert len(txs) == cfg.num_transmitters
    m = cfg.nodes_per_region
    for region in range(cfg.num_regions):
        rows = region_transmitter_rows(topo, region)
        assert list(rows) == list(range(region * m, (region + 1) * m))
        tiers = [txs[r].tier for r in rows]
        assert tiers == [TIER_TBS, TIER_TBS] + [TIER_UAV] * cfg.uavs_per_region


def test_node_altitudes():
    cfg, topo = _topo()
    for n in topo.transmitters():
        if n.tier == TIER_TBS:
            assert n.position[2] == TBS_MAST_HEIGHT_M
        else:
            assert n.position[2] == cfg.uav_altitude


def test_users_fall_inside_their_region():
    cfg, topo = _topo()
    for u in range(cfg.num_users):
        region = region_of_user(topo, u)
        x0, y0, x1, y1 = topo.region_bounds[region]
        x, y, z = topo.user_positions[u]
        assert x0 <= x <= x1 and y0 <= y <= y1
        assert z == 0.0


def test_regions_tile_without_overlap():
    cfg, topo = _topo()
    w, h = cfg.region_size
    for a in range(cfg.num_regions):
        x0, y0, x1, y1 = topo.region_bounds[a]
        assert x1 - x0 == pytest.approx(w)
        assert y1 - y0 == pytest.approx(h)
        for b in range(a + 1, cfg.num_regions):
            u0, v0, u1, v1 = topo.region_bounds[b]
            overlap_x = max(0.0, min(x1, u1) - max(x0, u0))
            overlap_y = max(0.0, min(y1, v1) - max(y0, v0))
            assert overlap_x * overlap_y == 0.0


def test_hierarchy_index_maps():
    cfg = ScenarioConfig()
    cfg.beams = 2
    cfg.haps_per_beam = 2
    cfg.regions_per_hap = 2
    cfg.validate()
    topo = build_topology(cfg, np.random.default_rng(0))
    assert len(topo.region_bounds) == 8
    assert region_of_hap(topo, 1) == [2, 3]
    assert hap_of_region(topo, 5) == 2
    assert beam_of_region(topo, 5) == 1
    assert beam_of_region(topo, 2) == 0


def test_user_placement_is_seeded():
    cfg = ScenarioConfig()
    t1 = build_topology(cfg, np.random.default_rng(7))
    t2 = build_topology(cfg, np.random.default_rng(7))
    t3 = build_topology(cfg, np.random.default_rng(8))
    assert np.array_equal(t1.user_positions, t2.user_positions)
    assert not np.array_equal(t1.user_positions, t3.user_positions)
