import dataclasses
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specshare import config
from specshare.config import (
    ConfigError,
    PpoConfig,
    RewardWeights,
    ScenarioConfig,
    config_from_dict,
    load_config,
)
from specshare.topology import (
    REFERENCE_SINR,
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


# -- one schema, two readers --------------------------------------------------
#
# A config file is read into the ``to_dict`` shape and built by
# ``config_from_dict``, the reader of trace headers and checkpoints; these
# properties hold for both readers on random scenarios.

_COUNT = st.integers(1, 10**6)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e12)
_UNIT = st.floats(0.0, 1.0)


@st.composite
def _valid_configs(draw):
    dl = draw(st.integers(1, 5))
    dh = dl * draw(st.integers(1, 5))
    return ScenarioConfig(
        beams=draw(_COUNT),
        haps_per_beam=draw(_COUNT),
        regions_per_hap=draw(_COUNT),
        uavs_per_region=draw(_COUNT),
        users_per_region=draw(_COUNT),
        region_size=(draw(_POSITIVE), draw(_POSITIVE)),
        uav_step=draw(st.floats(0.0, 1e6)),
        uav_altitude=draw(_POSITIVE),
        total_bandwidth=draw(_POSITIVE),
        num_subbands=draw(_COUNT),
        carrier_freq=draw(_POSITIVE),
        tx_power_tbs=draw(_REAL),
        tx_power_uav=draw(_REAL),
        noise_psd=draw(st.floats(-1e6, -1e-3)),
        r_min=draw(st.floats(0.0, 1e12)),
        interference_scope=draw(st.sampled_from(["global", "region"])),
        fading_frozen=draw(st.booleans()),
        episodes=draw(_COUNT),
        steps_per_episode=draw(_COUNT),
        decision_intervals=(dh * draw(st.integers(1, 5)), dh, dl),
        seed=draw(st.integers(0, 2**63)),
        exhaustive_cap=draw(_COUNT),
        reward_weights=RewardWeights(*(draw(_REAL) for _ in range(5))),
        ppo=PpoConfig(
            learning_rate=draw(st.floats(0.0, 1.0)),
            minibatch_size=draw(_COUNT),
            batch_size=draw(_COUNT),
            sgd_iters=draw(_COUNT),
            discount=draw(_UNIT),
            gae_lambda=draw(_UNIT),
            clip_eps=draw(_POSITIVE),
            entropy_coef=draw(_REAL),
            vf_coef=draw(_REAL),
        ),
    )


def _ini_text(data: dict, ints_as_floats: bool = False) -> str:
    """``to_dict``-shaped ``data`` as a config file: each key in the section
    the file layout gives it, a key it does not know in [run]."""
    home = {key: section for section, keys in config._SECTIONS.items() for key in keys}
    tables = {name: section for section, name in config._TABLES.items()}
    sections = {section: {} for section in ("topology", "radio", "reward", "ppo", "run")}
    for key, value in data.items():
        if key in tables and isinstance(value, dict):
            sections[tables[key]].update(value)
        else:
            sections[home.get(key, "run")][key] = value

    def text(value) -> str:
        if isinstance(value, list):
            return ", ".join(text(v) for v in value)
        if ints_as_floats and type(value) is int and float(value) == value:
            return repr(float(value))  # an integer written as a float still parses
        return str(value)

    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {text(value)}\n" for key, value in items.items())
        for section, items in sections.items()
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=_valid_configs(), ints_as_floats=st.booleans())
def test_random_configs_round_trip_through_both_readers(cfg, ints_as_floats, tmp_path_factory):
    cfg.validate()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    path.write_text(_ini_text(cfg.to_dict(), ints_as_floats))
    read = load_config(path)
    assert read == cfg
    assert read.config_hash() == cfg.config_hash()
    assert type(read.beams) is int and type(read.uav_step) is float


def _fields():
    """(table, key, default) for every config field; table is None for the
    top level, else the nested table's key."""
    for key, value in ScenarioConfig().to_dict().items():
        if isinstance(value, dict):
            yield from ((key, k, v) for k, v in value.items())
        else:
            yield None, key, value


def _not_a_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return True
    return False


_BOOL_WORDS = ("true", "yes", "on", "1", "false", "no", "off", "0")
_WORDS = st.text(string.ascii_lowercase, max_size=8)
# every number must be finite: as text (a config file) and as floats (JSON
# decodes NaN and Infinity)
_NON_FINITE = ("nan", "inf", "-inf", float("nan"), float("inf"), float("-inf"))


def _non_finite_examples(default):
    """Explicit examples for ``_wrong_kind``: each non-finite value as a
    float field, or as the first element of a tuple field."""

    def apply(test):
        if isinstance(default, float):
            values = _NON_FINITE
        elif isinstance(default, list):
            values = [[bad] + default[1:] for bad in _NON_FINITE]
        else:
            values = ()
        for bad in values:
            test = example(bad=bad)(test)
        return test

    return apply


def _wrong_kind(default):
    """Values that neither reader may take for a field with this default."""
    if isinstance(default, bool):
        return st.one_of(
            _WORDS.filter(lambda w: w not in _BOOL_WORDS),
            st.integers().filter(lambda i: i not in (0, 1)),
            st.floats(),
        )
    if isinstance(default, int):
        return st.one_of(
            st.floats().filter(lambda x: not x.is_integer()), _WORDS.filter(_not_a_number), st.booleans()
        )
    if isinstance(default, float):
        return st.one_of(st.sampled_from(_NON_FINITE), _WORDS.filter(_not_a_number), st.booleans())
    if isinstance(default, list):
        return st.lists(st.integers(1, 100), max_size=5).filter(lambda v: len(v) != len(default))
    assert isinstance(default, str)
    return st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans())


def _assert_both_readers_refuse(data: dict, key: str, path: Path) -> None:
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(data)
    path.write_text(_ini_text(data))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(path)


@pytest.mark.parametrize("table, key, default", list(_fields()), ids=lambda v: str(v))
def test_every_field_refuses_a_value_of_the_wrong_kind(table, key, default, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(bad=_wrong_kind(default))
    @_non_finite_examples(default)
    def refused(bad):
        data = ScenarioConfig().to_dict()
        (data[table] if table else data)[key] = bad
        _assert_both_readers_refuse(data, key, path)

    refused()


_FIELD_NAMES = {key for _, key, _ in _fields()} | {"reward_weights", "ppo"}


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    table=st.sampled_from([None, "reward_weights", "ppo"]),
    key=st.text(string.ascii_lowercase + "_", min_size=1, max_size=12).filter(
        lambda k: k not in _FIELD_NAMES
    ),
)
def test_unknown_keys_refused_at_every_level(table, key, tmp_path_factory):
    data = ScenarioConfig().to_dict()
    (data[table] if table else data)[key] = 1
    _assert_both_readers_refuse(data, key, tmp_path_factory.mktemp("cfg") / "c.cfg")


@pytest.mark.parametrize("table", [None, "reward_weights", "ppo"])
def test_a_table_that_is_not_a_dict_refused(table):
    data = ScenarioConfig().to_dict() if table else [1, 2]
    if table:
        data[table] = [1, 2]
    with pytest.raises(ConfigError, match=table or "config"):
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


_SMALL_COUNT = st.integers(1, 4)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=_valid_configs(), data=st.data())
def test_topology_caches_the_configs_derived_values_bit_for_bit(cfg, data):
    # the step reads these from the topology instead of the config's
    # properties; any other radio and reward field, and small counts so the
    # scene can be built
    counts = ("beams", "haps_per_beam", "regions_per_hap", "uavs_per_region", "users_per_region")
    cfg = dataclasses.replace(cfg, **{key: data.draw(_SMALL_COUNT, label=key) for key in counts})
    topo = build_topology(cfg, np.random.default_rng(0))
    log_term = np.log2(1.0 + REFERENCE_SINR)
    want = {
        "num_haps": cfg.num_haps,
        "num_regions": cfg.num_regions,
        "nodes_per_region": cfg.nodes_per_region,
        "num_transmitters": cfg.num_transmitters,
        "num_users": cfg.num_users,
        "noise_power_w": cfg.noise_power_w,
        "rate_norm": float(cfg.subband_bandwidth * log_term),
        "eff_norm": float(cfg.num_subbands * log_term),
    }
    for name, value in want.items():
        got = getattr(topo, name)
        assert type(got) is type(value), name  # plain int or float
        assert got.hex() == value.hex() if isinstance(value, float) else got == value, name
