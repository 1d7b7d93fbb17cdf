"""Deterministic scene construction: node placement and user drops.

Regions tile a horizontal strip, one square per region, left to right in
region-id order, so each beam covers a contiguous block of regions.  Every
region gets two TBSs (west/east half centers) and its UAVs at the region
center; users drop uniformly inside the region rectangle.  The satellite
and the HAPs only decide how spectrum is split; they place no transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ScenarioConfig

# TBS antennas sit on a short mast so transmitter-user distances stay
# strictly positive (users are at ground level).
TBS_MAST_HEIGHT_M = 10.0

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
    cfg: ScenarioConfig
    nodes: list[Node]  # the transmitters, region-major: row i of every per-row array
    user_positions: np.ndarray  # (num_users, 3), region-major order
    region_bounds: np.ndarray  # (num_regions, 4): xmin, ymin, xmax, ymax

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
        return _frozen(self._region_index[:, None] * self.cfg.nodes_per_region)

    @cached_property
    def user_xyz(self) -> np.ndarray:
        """(3, num_users) copy of the user coordinates, one row per axis."""
        return _frozen(np.array(self.user_positions.T, order="C"))

    @cached_property
    def _region_index(self) -> np.ndarray:
        return _frozen(np.arange(self.cfg.num_regions))

    def own_region_gains(self, gains: np.ndarray) -> np.ndarray:
        """(R, m, k) blocks of a (num_transmitters, num_users) matrix: each
        region's rows against that region's own users."""
        cfg = self.cfg
        r = self._region_index
        blocks = gains.reshape(
            cfg.num_regions, cfg.nodes_per_region, cfg.num_regions, cfg.users_per_region
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
