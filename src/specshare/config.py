"""Scenario configuration: dataclasses, validation, and config-file parsing.

The on-disk format is INI-style with five sections ([topology], [radio],
[reward], [ppo], [run]), ``key = value`` pairs, and ``#`` comments.  Keys
match the dataclass field names one to one; unknown keys are rejected so
typos fail loudly instead of silently running the defaults.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path


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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.minibatch_size < 1 or self.batch_size < 1:
            raise ConfigError("minibatch_size and batch_size must be >= 1")
        if self.sgd_iters < 1:
            raise ConfigError("sgd_iters must be >= 1")
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
        counts = {
            "beams": self.beams,
            "haps_per_beam": self.haps_per_beam,
            "regions_per_hap": self.regions_per_hap,
            "uavs_per_region": self.uavs_per_region,
            "users_per_region": self.users_per_region,
            "num_subbands": self.num_subbands,
            "episodes": self.episodes,
            "steps_per_episode": self.steps_per_episode,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.total_bandwidth <= 0 or self.carrier_freq <= 0:
            raise ConfigError("total_bandwidth and carrier_freq must be > 0")
        if self.noise_psd >= 0:
            raise ConfigError(f"noise_psd must be negative dBm/Hz, got {self.noise_psd}")
        if self.r_min < 0:
            raise ConfigError("r_min must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        if self.exhaustive_cap < 1:
            raise ConfigError("exhaustive_cap must be >= 1")
        self.ppo.validate()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "reward_weights":
                out[f.name] = {g.name: getattr(v, g.name) for g in fields(RewardWeights)}
            elif f.name == "ppo":
                out[f.name] = {g.name: getattr(v, g.name) for g in fields(PpoConfig)}
            elif isinstance(v, tuple):
                out[f.name] = list(v)
            else:
                out[f.name] = v
        return out

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


def _from_dict(data: dict) -> ScenarioConfig:
    rw = RewardWeights(**data.pop("reward_weights", {}))
    ppo = PpoConfig(**data.pop("ppo", {}))
    kwargs = {}
    for f in fields(ScenarioConfig):
        if f.name in ("reward_weights", "ppo"):
            continue
        if f.name in data:
            v = data[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    return ScenarioConfig(reward_weights=rw, ppo=ppo, **kwargs)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Rebuild a config from ``to_dict`` output (checkpoints, trace headers)."""
    cfg = _from_dict(dict(data))
    cfg.validate()
    return cfg


# -- file parsing ------------------------------------------------------------

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
    "reward": ("w_rate", "w_eff", "w_fair", "w_uav", "w_qos"),
    "ppo": (
        "learning_rate",
        "minibatch_size",
        "batch_size",
        "sgd_iters",
        "discount",
        "gae_lambda",
        "clip_eps",
        "entropy_coef",
        "vf_coef",
    ),
    "run": (
        "episodes",
        "steps_per_episode",
        "decision_intervals",
        "seed",
        "exhaustive_cap",
    ),
}

_INT_FIELDS = {
    "beams",
    "haps_per_beam",
    "regions_per_hap",
    "uavs_per_region",
    "users_per_region",
    "num_subbands",
    "episodes",
    "steps_per_episode",
    "seed",
    "exhaustive_cap",
    "minibatch_size",
    "batch_size",
    "sgd_iters",
}
_BOOL_FIELDS = {"fading_frozen"}
_STR_FIELDS = {"interference_scope"}
_TUPLE_FIELDS = {
    "region_size": (float, 2),
    "decision_intervals": (int, 3),
}


def _parse_int(key: str, raw: str) -> int:
    """An integer written as one (``3``) or as a float with no fraction
    (``1e5``); anything else, ``2.5`` included, is an error."""
    value = float(raw)
    if not value.is_integer():
        raise ConfigError(f"{key} expects an integer, got {raw!r}")
    return int(value)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _TUPLE_FIELDS:
            cast, n = _TUPLE_FIELDS[key]
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if len(parts) != n:
                raise ConfigError(f"{key} expects {n} comma-separated values, got {raw!r}")
            return tuple(_parse_int(key, p) if cast is int else cast(p) for p in parts)
        if key in _BOOL_FIELDS:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ConfigError(f"{key} expects a boolean, got {raw!r}")
        if key in _STR_FIELDS:
            return raw
        if key in _INT_FIELDS:
            return _parse_int(key, raw)
        return float(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"could not parse {key} = {raw!r}: {exc}") from None


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

    cfg = ScenarioConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            value = _parse_value(key, raw)
            if section == "reward":
                setattr(cfg.reward_weights, key, value)
            elif section == "ppo":
                setattr(cfg.ppo, key, value)
            else:
                setattr(cfg, key, value)
    cfg.validate()
    return cfg
