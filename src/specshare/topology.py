"""Deterministic scene construction: node placement and user drops.

Regions tile a horizontal strip, one square per region, left to right in
region-id order, so each beam covers a contiguous block of regions.  Every
region gets two TBSs (west/east half centers) and its UAVs at the region
center; users drop uniformly inside the region rectangle.  The satellite
and the HAPs only decide how spectrum is split; they place no transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ScenarioConfig

# TBS antennas sit on a short mast so transmitter-user distances stay
# strictly positive (users are at ground level).
TBS_MAST_HEIGHT_M = 10.0

# Reference SINR anchoring the reward scales: a link at this SINR counts as
# "full rate" for normalization purposes.
REFERENCE_SINR = 100.0

TIER_TBS = "tbs"
TIER_UAV = "uav"


def dbm_to_watts(dbm) -> np.ndarray:
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Node:
    """A transmitting ground node: a TBS or a UAV."""

    tier: str
    position: np.ndarray  # (3,) meters, home position
    tx_power_dbm: float
    region: int  # owning region


@dataclass
class Topology:
    """The built scene, and the scenario values the step reads from it.

    The counts, the noise power and the reward scales are plain fields, set
    once from ``cfg`` at construction: ``cfg``'s properties recompute them
    on every read, and the step reads them dozens of times.
    """

    cfg: ScenarioConfig
    nodes: list[Node]  # the transmitters, region-major: row i of every per-row array
    user_positions: np.ndarray  # (num_users, 3), region-major order
    region_bounds: np.ndarray  # (num_regions, 4): xmin, ymin, xmax, ymax
    num_haps: int = field(init=False)
    num_regions: int = field(init=False)
    nodes_per_region: int = field(init=False)
    num_transmitters: int = field(init=False)
    num_users: int = field(init=False)
    noise_power_w: float = field(init=False)  # thermal noise per subband
    rate_norm: float = field(init=False)  # one subband's rate at REFERENCE_SINR, bps
    eff_norm: float = field(init=False)  # every subband's efficiency at it, bps/Hz

    def __post_init__(self) -> None:
        cfg = self.cfg
        self.num_haps = cfg.num_haps
        self.num_regions = cfg.num_regions
        self.nodes_per_region = cfg.nodes_per_region
        self.num_transmitters = cfg.num_transmitters
        self.num_users = cfg.num_users
        self.noise_power_w = cfg.noise_power_w
        log_term = np.log2(1.0 + REFERENCE_SINR)
        self.rate_norm = float(cfg.subband_bandwidth * log_term)
        self.eff_norm = float(cfg.num_subbands * log_term)

    def transmitters(self) -> list[Node]:
        return self.nodes

    # Per-row and per-user constants, built once: nodes and users never
    # change after construction, and the step reads these every time.

    @cached_property
    def tx_power_w(self) -> np.ndarray:
        """(num_transmitters,) transmit power in watts."""
        return _frozen(dbm_to_watts([n.tx_power_dbm for n in self.transmitters()]))

    @cached_property
    def is_uav(self) -> np.ndarray:
        """(num_transmitters,) True on UAV rows."""
        return _frozen(np.array([n.tier == TIER_UAV for n in self.transmitters()], dtype=bool))

    @cached_property
    def uav_rows(self) -> np.ndarray:
        """Row indices of the UAVs, in region order."""
        return _frozen(np.nonzero(self.is_uav)[0])

    @cached_property
    def row_region(self) -> np.ndarray:
        """(num_transmitters,) owning region of each row."""
        return _frozen(np.array([n.region for n in self.transmitters()], dtype=int))

    @cached_property
    def region_beam(self) -> np.ndarray:
        """(num_regions,) beam of each region."""
        cfg = self.cfg
        return _frozen(self._region_index // cfg.regions_per_hap // cfg.haps_per_beam)

    @cached_property
    def region_first_row(self) -> np.ndarray:
        """(num_regions, 1) first transmitter row of each region."""
        return _frozen(self._region_index[:, None] * self.nodes_per_region)

    @cached_property
    def user_xyz(self) -> np.ndarray:
        """(3, num_users) copy of the user coordinates, one row per axis."""
        return _frozen(np.array(self.user_positions.T, order="C"))

    @cached_property
    def _region_index(self) -> np.ndarray:
        return _frozen(np.arange(self.num_regions))

    def own_region_gains(self, gains: np.ndarray) -> np.ndarray:
        """(R, m, k) blocks of a (num_transmitters, num_users) matrix: each
        region's rows against that region's own users."""
        r = self._region_index
        blocks = gains.reshape(
            self.num_regions, self.nodes_per_region, self.num_regions, self.cfg.users_per_region
        )
        return blocks[r, :, r, :]


def build_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> Topology:
    """Place the TBSs and UAVs and drop the users; rng only drives the users."""
    w, h = cfg.region_size
    n_regions = cfg.num_regions

    bounds = np.zeros((n_regions, 4))
    for r in range(n_regions):
        bounds[r] = (r * w, 0.0, (r + 1) * w, h)

    nodes: list[Node] = []
    for r in range(n_regions):
        x0, y0, x1, y1 = bounds[r]
        cy = 0.5 * (y0 + y1)
        cx = 0.5 * (x0 + x1)
        for x in (x0 + 0.25 * (x1 - x0), x0 + 0.75 * (x1 - x0)):
            nodes.append(Node(TIER_TBS, np.array([x, cy, TBS_MAST_HEIGHT_M]), cfg.tx_power_tbs, r))
        for _ in range(cfg.uavs_per_region):
            nodes.append(Node(TIER_UAV, np.array([cx, cy, cfg.uav_altitude]), cfg.tx_power_uav, r))

    users = np.zeros((cfg.num_users, 3))
    for r in range(n_regions):
        x0, y0, x1, y1 = bounds[r]
        k = cfg.users_per_region
        sl = slice(r * k, (r + 1) * k)
        users[sl, 0] = rng.uniform(x0, x1, size=k)
        users[sl, 1] = rng.uniform(y0, y1, size=k)

    return Topology(cfg=cfg, nodes=nodes, user_positions=users, region_bounds=bounds)
