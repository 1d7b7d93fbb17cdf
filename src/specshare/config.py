"""Scenario configuration: dataclasses, validation, and config-file parsing.

The on-disk format is INI-style with five sections ([topology], [radio],
[reward], [ppo], [run]), ``key = value`` pairs, and ``#`` comments.  Keys
match the dataclass field names one to one; unknown keys are rejected so
typos fail loudly instead of silently running the defaults.

The dataclass annotations are the only record of each field's type.  A
config file is read into the ``to_dict`` shape and built by
``config_from_dict``, which also reads trace headers, so every reader
applies the same per-field coercion and refuses unknown keys at every level.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints


class ConfigError(ValueError):
    """Raised for unparseable config files or invariant violations."""


@dataclass
class RewardWeights:
    """Weights of the multi-objective step reward.

    Rate, efficiency, fairness, UAV-escape, and QoS-violation terms; the
    last two are penalties and therefore negative.
    """

    w_rate: float = 1.0
    w_eff: float = 1.5
    w_fair: float = 0.5
    w_uav: float = -1.0
    w_qos: float = -0.5


@dataclass
class PpoConfig:
    learning_rate: float = 0.0005
    minibatch_size: int = 512
    batch_size: int = 2000
    sgd_iters: int = 30
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    entropy_coef: float = 0.01
    vf_coef: float = 1.0

    def validate(self) -> None:
        _check_counts(self)
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if not (0.0 <= self.discount <= 1.0):
            raise ConfigError("discount must lie in [0, 1]")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ConfigError("gae_lambda must lie in [0, 1]")
        if self.clip_eps <= 0:
            raise ConfigError("clip_eps must be > 0")


@dataclass
class ScenarioConfig:
    """Full scenario description; defaults give the reference configuration."""

    # topology
    beams: int = 2
    haps_per_beam: int = 1
    regions_per_hap: int = 2
    uavs_per_region: int = 1
    users_per_region: int = 10
    region_size: tuple[float, float] = (2000.0, 2000.0)
    uav_step: float = 10.0
    uav_altitude: float = 100.0

    # radio
    total_bandwidth: float = 200e6
    num_subbands: int = 10
    carrier_freq: float = 28e9
    tx_power_tbs: float = 16.0
    tx_power_uav: float = 8.0
    noise_psd: float = -174.0
    r_min: float = 0.0
    interference_scope: str = "global"
    fading_frozen: bool = False

    # run
    episodes: int = 1000
    steps_per_episode: int = 500
    decision_intervals: tuple[int, int, int] = (50, 10, 1)
    seed: int = 0
    exhaustive_cap: int = 100_000

    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    ppo: PpoConfig = field(default_factory=PpoConfig)

    # -- derived quantities -------------------------------------------------

    @property
    def num_haps(self) -> int:
        return self.beams * self.haps_per_beam

    @property
    def num_regions(self) -> int:
        return self.num_haps * self.regions_per_hap

    @property
    def nodes_per_region(self) -> int:
        # two TBSs plus the region's UAVs
        return 2 + self.uavs_per_region

    @property
    def num_transmitters(self) -> int:
        return self.num_regions * self.nodes_per_region

    @property
    def num_users(self) -> int:
        return self.num_regions * self.users_per_region

    @property
    def subband_bandwidth(self) -> float:
        return self.total_bandwidth / self.num_subbands

    @property
    def noise_power_w(self) -> float:
        """Thermal noise power per subband in watts."""
        return 10.0 ** ((self.noise_psd - 30.0) / 10.0) * self.subband_bandwidth

    def global_due(self, t: int) -> bool:
        """Whether step ``t`` is a global decision epoch."""
        return t % self.decision_intervals[0] == 0

    def regional_due(self, t: int) -> bool:
        """Whether step ``t`` is a regional decision epoch (every global one is)."""
        return t % self.decision_intervals[1] == 0

    def validate(self) -> None:
        _check_counts(self)
        if self.total_bandwidth <= 0 or self.carrier_freq <= 0:
            raise ConfigError("total_bandwidth and carrier_freq must be > 0")
        if self.noise_psd >= 0:
            raise ConfigError(f"noise_psd must be negative dBm/Hz, got {self.noise_psd}")
        if self.r_min < 0:
            raise ConfigError("r_min must be >= 0")
        if len(self.decision_intervals) != 3:
            raise ConfigError(
                f"decision_intervals expects 3 values (ds, dh, dl), got {list(self.decision_intervals)}"
            )
        ds, dh, dl = self.decision_intervals
        if not (ds >= dh >= dl >= 1):
            raise ConfigError(
                f"decision interval ordering requires ds >= dh >= dl >= 1, got {ds}, {dh}, {dl}"
            )
        if ds % dh != 0 or dh % dl != 0:
            raise ConfigError(
                f"decision interval ordering requires nested multiples, got {ds}, {dh}, {dl}"
            )
        if len(self.region_size) != 2 or min(self.region_size) <= 0:
            raise ConfigError(f"region_size must be two positive extents, got {self.region_size}")
        if self.uav_step < 0:
            raise ConfigError("uav_step must be >= 0")
        if self.uav_altitude <= 0:
            raise ConfigError("uav_altitude must be > 0")
        if self.interference_scope not in ("global", "region"):
            raise ConfigError(
                f"interference_scope must be 'global' or 'region', got {self.interference_scope!r}"
            )
        self.ppo.validate()

    def to_dict(self) -> dict:
        """Every field by name, nested tables as dicts and tuples as lists."""
        return asdict(self, dict_factory=_tuples_as_lists)

    # run-control fields a checkpoint stays valid across
    _HASH_EXCLUDE = ("seed", "episodes")

    def config_hash(self) -> str:
        """Scenario identity hash for checkpoint compatibility checks.

        Covers everything that affects network shapes or the meaning of
        trained weights; excludes run-control fields (seed, episode count)
        so one checkpoint can be evaluated under several seeds.
        """
        data = self.to_dict()
        for key in self._HASH_EXCLUDE:
            data.pop(key, None)
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# -- typed fields ------------------------------------------------------------


def _tuples_as_lists(items) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


@cache
def _field_types(cls) -> dict:
    """Each field's annotated type, resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _check_counts(obj) -> None:
    """Every ``int`` field is a count, at least 1; ``seed`` may also be 0."""
    for name, tp in _field_types(type(obj)).items():
        if tp is int:
            least = 0 if name == "seed" else 1
            value = getattr(obj, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")


_TRUE, _FALSE = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _coerce(key: str, tp, value):
    """``value`` as field ``key`` of type ``tp``, from config-file text or a
    decoded JSON value under the same rules.  An integer may be written as a
    float with no fraction (``1e5``, ``2.0``); ``2.5`` is an error, and so
    are ``nan``, ``inf`` and ``-inf`` for any number, and a bool where a
    number belongs."""
    if tp is str:
        if isinstance(value, str):
            return value
    elif tp is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _TRUE + _FALSE:
            return value.lower() in _TRUE
    elif tp is int or tp is float:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                number = float(value)
            except (ValueError, OverflowError):
                pass
            else:
                if tp is float:
                    if math.isfinite(number):
                        return number
                elif number.is_integer():
                    try:
                        return int(value)  # every digit of an int or integer text
                    except ValueError:
                        return int(number)  # 1e5, 2.0
    elif is_dataclass(tp):
        return _build(tp, value, key)
    else:  # a fixed-length tuple
        types = get_args(tp)
        parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
        if not isinstance(parts, (list, tuple)) or len(parts) != len(types):
            raise ConfigError(f"{key} expects {len(types)} comma-separated values, got {value!r}")
        return tuple(_coerce(key, t, v) for t, v in zip(types, parts))
    kind = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}[tp]
    raise ConfigError(f"{key} expects {kind}, got {value!r}")


def _build(cls, data, where: str):
    """A ``cls`` from a dict of its fields; absent fields keep their defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} expects a table of keys, got {type(data).__name__}")
    types = _field_types(cls)
    for key in data:
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return cls(**{key: _coerce(key, types[key], value) for key, value in data.items()})


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a config from the ``to_dict`` shape (a config
    file's sections, a trace header, a reseeded copy)."""
    cfg = _build(ScenarioConfig, data, "config")
    cfg.validate()
    return cfg


# -- file parsing ------------------------------------------------------------

# the file's layout: which section holds which top-level field
_SECTIONS = {
    "topology": (
        "beams",
        "haps_per_beam",
        "regions_per_hap",
        "uavs_per_region",
        "users_per_region",
        "region_size",
        "uav_step",
        "uav_altitude",
    ),
    "radio": (
        "total_bandwidth",
        "num_subbands",
        "carrier_freq",
        "tx_power_tbs",
        "tx_power_uav",
        "noise_psd",
        "r_min",
        "interference_scope",
        "fading_frozen",
    ),
    "run": (
        "episodes",
        "steps_per_episode",
        "decision_intervals",
        "seed",
        "exhaustive_cap",
    ),
}
# sections that are one nested table each, by the field that holds it
_TABLES = {"reward": "reward_weights", "ppo": "ppo"}


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario config file; missing keys keep their defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    data = {}
    for section in parser.sections():
        items = dict(parser.items(section))
        if section in _TABLES:
            data[_TABLES[section]] = items
        elif section in _SECTIONS:
            for key in items:
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
            data.update(items)
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return config_from_dict(data)
