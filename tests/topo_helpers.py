"""Index maps of the region-major layout, one region, HAP or user at a time.

The package reads these through the block arrays of ``Topology``
(``row_region``, ``region_beam``, ``region_first_row``, ...); the tests and
``reference_loops`` use the scalar forms below.
"""

from __future__ import annotations

import numpy as np


def region_of_hap(topo, hap: int) -> list[int]:
    r = topo.cfg.regions_per_hap
    return list(range(hap * r, (hap + 1) * r))


def hap_of_region(topo, region: int) -> int:
    return region // topo.cfg.regions_per_hap


def beam_of_region(topo, region: int) -> int:
    return hap_of_region(topo, region) // topo.cfg.haps_per_beam


def region_transmitter_rows(topo, region: int) -> np.ndarray:
    """Row indices (into transmitter-major arrays) of a region's nodes."""
    m = topo.cfg.nodes_per_region
    return np.arange(region * m, (region + 1) * m)


def region_user_slice(topo, region: int) -> slice:
    k = topo.cfg.users_per_region
    return slice(region * k, (region + 1) * k)


def region_of_user(topo, user: int) -> int:
    return user // topo.cfg.users_per_region
