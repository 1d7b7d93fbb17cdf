"""Index maps of the region-major layout, one region, HAP or user at a time.

The package reads these through the block arrays of ``Topology``
(``row_region``, ``region_beam``, ``region_first_row``, ...); the tests and
``reference_loops`` use the scalar forms below.  ``small_scenarios`` and
``random_feasible_state`` draw scenarios and feasible allocations for the
property tests.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from specshare.allocation import AllocationState
from specshare.config import ScenarioConfig


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


@st.composite
def small_scenarios(draw) -> ScenarioConfig:
    """A small valid scenario: up to 8 regions of 1-2 UAVs and 1-5 users."""
    region = float(draw(st.sampled_from([400.0, 2000.0])))
    cfg = ScenarioConfig(
        beams=draw(st.integers(1, 2)),
        haps_per_beam=draw(st.integers(1, 2)),
        regions_per_hap=draw(st.integers(1, 2)),
        uavs_per_region=draw(st.integers(1, 2)),
        users_per_region=draw(st.integers(1, 5)),
        region_size=(region, region),
        uav_step=float(draw(st.sampled_from([0.0, 5.0, 25.0]))),
        num_subbands=draw(st.integers(1, 4)),
        r_min=float(draw(st.sampled_from([0.0, 1e6, 5e7]))),
        interference_scope=draw(st.sampled_from(["global", "region"])),
        fading_frozen=draw(st.booleans()),
    )
    cfg.validate()
    return cfg


def random_feasible_state(cfg, rng) -> AllocationState:
    """Each subband granted to a random beam or to none, each granted
    (region, subband) to a random node with probability 0.8, beta on 90% of
    the grants, and random power fractions rescaled to the budget."""
    state = AllocationState.zeros(cfg)
    m = cfg.nodes_per_region
    for n in range(cfg.num_subbands):
        b = rng.integers(0, cfg.beams + 1)
        if b > 0:
            state.global_alloc[b - 1, n] = 1
    for region in range(cfg.num_regions):
        beam = (region // cfg.regions_per_hap) // cfg.haps_per_beam
        for n in range(cfg.num_subbands):
            if state.global_alloc[beam, n] and rng.random() < 0.8:
                state.regional[region * m + rng.integers(0, m), n] = 1
    state.beta = (state.regional * (rng.random(state.regional.shape) < 0.9)).astype(np.int8)
    alpha = rng.random(state.alpha.shape)
    used = (state.beta * alpha).sum(axis=1, keepdims=True)
    state.alpha = alpha / np.maximum(used, 1.0)
    return state
