"""Nested spectrum allocation state, feasibility checks, and clamping.

Three levels share one pool of N subbands:

* global: beams x subbands binary matrix, each subband granted to at most
  one beam;
* regional: per region, a nodes x subbands binary matrix, each subband used
  by at most one node inside the region, and only if the region's beam
  holds that subband;
* local: per node, a binary access mask ``beta`` over subbands, a power
  fraction ``alpha`` per subband with unit budget over active subbands, and
  a horizontal movement vector ``dp`` (UAVs only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

# Feasibility is checked with a small tolerance on the power budget so a
# rescale followed by re-validation never flags float dust.
BUDGET_TOL = 1e-9
# clamp only rescales when the overshoot exceeds this, which makes
# clamp(clamp(x)) bit-identical to clamp(x)
_RESCALE_TOL = 1e-12


@dataclass
class Violation:
    constraint: str
    where: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.constraint} at {self.where}: {self.message}"


# Each allocation array in trace order: its trace key, its AllocationState
# attribute, its dtype, and its shape as a function of the config.
# ``global`` is a Python keyword, hence the attribute ``global_alloc``.
ALLOCATION_ARRAYS = (
    ("global", "global_alloc", np.int8, lambda cfg: (cfg.beams, cfg.num_subbands)),
    ("regional", "regional", np.int8, lambda cfg: (cfg.num_transmitters, cfg.num_subbands)),
    ("beta", "beta", np.int8, lambda cfg: (cfg.num_transmitters, cfg.num_subbands)),
    ("alpha", "alpha", np.float64, lambda cfg: (cfg.num_transmitters, cfg.num_subbands)),
    ("dp", "dp", np.float64, lambda cfg: (cfg.num_transmitters, 2)),
)


@dataclass
class AllocationState:
    """Joint allocation across all three levels, transmitter-major layout.

    ``regional`` stacks every region's matrix into one
    (num_transmitters, N) array so that row ``i`` of ``regional``,
    ``beta`` and ``alpha`` all describe the same node.  Each array's dtype,
    shape and trace key are those ``ALLOCATION_ARRAYS`` gives it.
    """

    global_alloc: np.ndarray  # in {0, 1}
    regional: np.ndarray  # in {0, 1}
    beta: np.ndarray  # in {0, 1}
    alpha: np.ndarray  # in [0, 1]
    dp: np.ndarray  # meters

    @classmethod
    def zeros(cls, cfg: ScenarioConfig) -> "AllocationState":
        arrays = {}
        for _, attr, dtype, shape in ALLOCATION_ARRAYS:
            arrays[attr] = np.zeros(shape(cfg), dtype=dtype)
        return cls(**arrays)

    def to_dict(self) -> dict:
        """The arrays as nested lists under their trace keys."""
        data = {}
        for key, attr, _, _ in ALLOCATION_ARRAYS:
            data[key] = getattr(self, attr).tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationState":
        """Read ``to_dict``'s form, each array with its table dtype; the
        shapes are not checked here (``validate`` checks them)."""
        arrays = {}
        for key, attr, dtype, _ in ALLOCATION_ARRAYS:
            arrays[attr] = np.asarray(data[key], dtype=dtype)
        return cls(**arrays)


def _first_non_binary(x: np.ndarray):
    """Index (row-major) of the first entry that is not 0 or 1, else None.

    Flags 2, -1 and 0.5 alike, whatever the dtype.
    """
    if x.dtype.kind in "iu":
        bad = x & ~1  # nonzero exactly where x is not 0 or 1
    else:
        bad = ~((x == 0) | (x == 1))
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0].tolist())


def validate(state: AllocationState, cfg: ScenarioConfig) -> Violation | None:
    """Return the first violated constraint, or None when feasible.

    Checks run in a fixed order (the shapes ``ALLOCATION_ARRAYS`` gives,
    global, regional region by region, beta, alpha, movement); within the
    regional stage the lowest region with a fault wins, and inside it a
    region conflict precedes a grant-nesting fault.  Each stage first asks
    one whole-array question and only locates the fault when the answer is
    no.  The env runs it on each step's new allocation before committing
    it, and ``replay`` on every traced step.
    """
    for key, attr, _, shape in ALLOCATION_ARRAYS:
        arr = getattr(state, attr)
        if arr.shape != shape(cfg):
            return Violation("shape", arr.shape, f"{key} has wrong shape")
    g = state.global_alloc
    n_sub = cfg.num_subbands
    bad = _first_non_binary(g)
    if bad is not None:
        return Violation("binary", bad, "global allocation entries must be 0/1")
    col = g.sum(axis=0)
    if col.max() > 1:
        n = int(np.argmax(col > 1))
        return Violation("beam-conflict", (n,), f"subband {n} granted to {col[n]} beams")

    bad = _first_non_binary(state.regional)
    if bad is not None:
        return Violation("binary", bad, "regional allocation entries must be 0/1")
    # nodes on each (region, subband), regions grouped by beam: a beam's
    # regions are contiguous in region order
    beams = cfg.beams
    col = state.regional.reshape(beams, -1, cfg.nodes_per_region, n_sub).sum(axis=2)
    # with 0/1 entries, col > grant flags both a conflict (col >= 2) and a
    # subband used without its beam's grant (col == 1, grant == 0)
    over = (col > g[:, None, :]).reshape(-1, n_sub)  # (R, N)
    if over.any():
        col = col.reshape(-1, n_sub)
        region = int(np.argmax(over.any(axis=1)))
        conflict = col[region] > 1
        if conflict.any():
            n = int(np.argmax(conflict))
            return Violation(
                "region-conflict", (region, n),
                f"subband {n} used by {col[region, n]} nodes in region {region}",
            )
        n = int(np.argmax(over[region]))
        beam = (region // cfg.regions_per_hap) // cfg.haps_per_beam
        return Violation(
            "grant-nesting", (region, n), f"region {region} uses subband {n} not granted to beam {beam}"
        )

    bad = _first_non_binary(state.beta)
    if bad is not None:
        return Violation("binary", bad, "beta entries must be 0/1")
    over = state.beta > state.regional  # beta 1 where regional 0, both binary here
    if over.any():
        row, n = np.argwhere(over)[0]
        return Violation("access-mask", (int(row), int(n)), "beta set on an ungranted subband")

    # min/max carry a NaN through, and every comparison with it is false, so
    # the checks ask "is it in range?" and a NaN is out of range
    alpha = state.alpha
    if not (np.minimum.reduce(alpha, axis=None) >= 0 and np.maximum.reduce(alpha, axis=None) <= 1):
        row, n = np.argwhere(~((alpha >= 0) & (alpha <= 1)))[0]
        return Violation("power-range", (int(row), int(n)), "alpha outside [0, 1]")
    used = (state.beta * alpha).sum(axis=1)
    if np.fmax.reduce(used) > 1.0 + BUDGET_TOL:
        row = int(np.argmax(used))
        return Violation("power-budget", (row,), f"active power fractions sum to {used[row]:.6f}")

    reach = np.abs(state.dp)
    limit = cfg.uav_step + BUDGET_TOL
    if not np.maximum.reduce(reach, axis=None) <= limit:
        row, axis = np.argwhere(~(reach <= limit))[0]
        return Violation("movement-limit", (int(row), int(axis)), f"|dp| exceeds {cfg.uav_step} m")
    return None


def clamp_local(
    beta: np.ndarray,
    alpha: np.ndarray,
    dp: np.ndarray,
    granted: np.ndarray,
    uav_step: float,
    is_uav: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project raw local actions onto the feasible set; stacks only.

    Takes every node at once: beta, float alpha and the int8 grant (T, N),
    float dp (T, 2) and one ``is_uav`` flag per node, and returns the
    clamped (beta, alpha, dp).  beta is masked by the regional grant, alpha
    clipped to [0, 1] and rescaled when the active budget exceeds one, dp
    clipped per axis and zeroed for non-UAV nodes.  Idempotent: clamping a
    clamped action is a bit-exact no-op.
    """
    b = (beta > 0.5) & granted  # int8 0/1
    # np.minimum(hi, np.maximum(lo, x)) is np.clip(x, lo, hi) bit for bit,
    # signed zeros included, without the wrapper overhead
    a = np.minimum(1.0, np.maximum(0.0, alpha))
    used = (b * a).sum(axis=-1, keepdims=True)
    np.divide(a, used, out=a, where=used > 1.0 + _RESCALE_TOL)
    d = np.minimum(uav_step, np.maximum(-uav_step, dp))
    return b, a, np.where(is_uav[:, None], d, 0.0)
