"""Radio propagation: path loss, shadowing, small-scale fading, interference.

Channel power gain for a link is ``10 ** (-(PL + X) / 10) * F`` with
free-space path loss PL, log-normal shadowing X (sigma 4 dB), and a
Rayleigh fading power factor F drawn per link (every transmitter is a
ground node: a TBS or a UAV).  A scenario with ``fading_frozen`` set
(shadowing 0, fading 1) has a deterministic channel, and its gains take no
generator.

Two rules keep the gains, and every output built on them, byte-identical
for a seed: one shadowing draw, then one fading draw, each over the whole
row-major (transmitters, users) matrix; and distances summed
``(dx**2 + dy**2) + dz**2``, the order a sum over a length-3 axis takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import AllocationState
from .config import ScenarioConfig
from .topology import Topology
from .topology import dbm_to_watts  # noqa: F401  (re-exported: part of this module's API)

SHADOWING_STD_DB = 4.0
# dB range used to squash link gains into [0, 1] observation features
GAIN_DB_RANGE = (-160.0, -60.0)
_MIN_GAIN = 1e-30


def path_loss_db(distance_m, carrier_hz) -> np.ndarray:
    """Free-space path loss in dB; distance and frequency must be positive,
    and the frequency must broadcast to the distance's shape."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(carrier_hz, dtype=float)
    if (d <= 0).any() if d.ndim else d <= 0:
        raise ValueError("distance must be > 0")
    if (f <= 0).any() if f.ndim else f <= 0:
        raise ValueError("carrier frequency must be > 0")
    # 20 log10(d) + 20 log10(f) - 147.55, in place on one fresh array
    pl = np.log10(d)
    pl *= 20.0
    pl += 20.0 * np.log10(f)
    pl -= 147.55
    return pl


def rayleigh_power(rng: np.random.Generator, size):
    """Rayleigh fading power factor: unit-mean exponential, floored at 1e-12."""
    # the numbers and generator state of rng.exponential(1.0, size), without
    # the scale multiply
    power = rng.standard_exponential(size)
    return np.maximum(power, 1e-12, out=power)


def db_to_unit(linear, floor, offset_db, lo_db, span_db) -> np.ndarray:
    """Map linear power onto [0, 1]: 10 log10(max(linear, floor)) + offset_db,
    scaled from [lo_db, lo_db + span_db] and clipped."""
    db = 10.0 * np.log10(np.maximum(linear, floor)) + offset_db
    # np.clip(x, 0, 1) with the same bits (signed zeros included), minus the
    # wrapper overhead
    return np.minimum(1.0, np.maximum(0.0, (db - lo_db) / span_db))


def gain_to_unit(gain_linear) -> np.ndarray:
    """Map linear gains onto [0, 1] via the fixed dB observation range."""
    lo, hi = GAIN_DB_RANGE
    return db_to_unit(gain_linear, _MIN_GAIN, 0.0, lo, hi - lo)


@dataclass
class ChannelSnapshot:
    """One step's channel state for all transmitter-user links.

    gains: (num_transmitters, num_users) linear power gains in (0, 1];
    association: (num_users,) transmitter row serving each user, -1 if the
    user's region holds no granted subband;
    interference: (num_users, N) co-channel interference power in watts,
    excluding each user's own serving node.
    """

    gains: np.ndarray
    association: np.ndarray
    interference: np.ndarray
    tx_power_w: np.ndarray  # (num_transmitters,)


def _link_distances(topo: Topology, tx_positions: np.ndarray) -> np.ndarray:
    """(num_transmitters, num_users) distances, summed ``(dx**2 + dy**2) +
    dz**2`` over (3, T, U) planes: the bits of ``.sum(axis=2)`` over a
    (T, U, 3) difference.  ``hypot`` or ``dx**2 + (dy**2 + dz**2)`` changes
    the last bit of some distances."""
    users = topo.user_xyz
    diff = np.empty((3, len(tx_positions), users.shape[1]))
    np.subtract(tx_positions.T[:, :, None], users[:, None, :], out=diff)
    diff *= diff
    dist = diff[0] + diff[1]
    dist += diff[2]
    return np.sqrt(dist, out=dist)


def link_gains(
    topo: Topology, tx_positions: np.ndarray, rng: np.random.Generator | None
) -> np.ndarray:
    """Draw the (num_transmitters, num_users) gain matrix for one step.

    Unless the scenario's fading is frozen, exactly two draws over (T, U):
    ``rng.standard_normal`` scaled by 4 in place, then
    ``rng.standard_exponential``.  They give the numbers and generator state
    of ``rng.normal(0, 4, (T, U))`` and ``rng.exponential(1, (T, U))``, which
    leave the generator where T per-row fading draws would.  Frozen, ``rng``
    is not touched and may be None.  Distances are summed ``(dx**2 + dy**2)
    + dz**2`` (``_link_distances``).
    """
    frozen = topo.cfg.fading_frozen
    if not frozen and rng is None:
        raise ValueError("unfrozen fading draws shadowing and fading: rng must not be None")
    pl = path_loss_db(_link_distances(topo, tx_positions), topo.cfg.carrier_freq)
    if frozen:
        gains = pl
    else:
        gains = rng.standard_normal(pl.shape)
        gains *= SHADOWING_STD_DB
        gains += pl
    # -(x) / 10 and x / -10 round alike
    gains /= -10.0
    np.power(10.0, gains, out=gains)
    if not frozen:
        gains *= rayleigh_power(rng, gains.shape)
    # np.clip(gains, _MIN_GAIN, 1.0) with the same bits, in place
    np.maximum(_MIN_GAIN, gains, out=gains)
    return np.minimum(1.0, gains, out=gains)


def associate_users(topo: Topology, gains: np.ndarray, regional: np.ndarray) -> np.ndarray:
    """Serve each user from its region's best-gain node among grant holders.

    Ties go to the lowest row; users of a region whose nodes hold no grant
    get -1.  ``regional`` (T, N) gives (U,); leading candidate axes carry
    through, so (C, T, N) gives (C, U).
    """
    lead = regional.shape[:-2]
    holds = regional.any(axis=-1).reshape(lead + (topo.cfg.num_regions, -1, 1))
    # gains are >= _MIN_GAIN > -inf, so a holder always beats a masked row
    best = np.where(holds, topo.own_region_gains(gains), -np.inf).argmax(axis=-2)  # (..., R, k)
    association = best + topo.region_first_row
    # a region without a grant holder serves nobody
    return np.where(holds.any(axis=-2), association, -1).reshape(lead + (-1,))


def co_channel_interference(
    topo: Topology,
    gains: np.ndarray,
    alloc: AllocationState,
    tx_power_w: np.ndarray,
    association: np.ndarray,
    scope: str,
) -> np.ndarray:
    """Interference per (user, subband) from other active co-channel nodes.

    Reads only ``alloc``'s regional, beta and alpha.  (T, N) arrays and a
    (U,) association give (U, N); leading candidate axes on all four carry
    through, so (C, T, N) and (C, U) give (C, U, N).
    """
    cfg = topo.cfg
    active = alloc.regional * alloc.beta  # 0/1; exact under the cast to float below
    tx_psd = active * alloc.alpha * tx_power_w[:, None]  # (..., T, N) radiated power
    lead = tx_psd.shape[:-2]
    if scope == "region":
        blocks = topo.own_region_gains(gains)  # (R, m, k)
        psd = tx_psd.reshape(lead + (cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands))
        total = np.matmul(blocks.transpose(0, 2, 1), psd)
        total = total.reshape(lead + (cfg.num_users, cfg.num_subbands))
    else:
        total = gains.T @ tx_psd  # (..., U, N)
    # remove each user's own serving contribution; served[-1] holds the users,
    # served[:-1] their candidates
    served = np.nonzero(association >= 0)
    if served[-1].size:
        s_rows = association[served]
        own = gains[s_rows, served[-1]][:, None] * tx_psd[served[:-1] + (s_rows,)]
        total[served] -= own
        np.maximum(total, 0.0, out=total)
    return total


def compute_snapshot(
    topo: Topology,
    alloc: AllocationState,
    tx_positions: np.ndarray,
    rng: np.random.Generator | None = None,
    gains: np.ndarray | None = None,
) -> ChannelSnapshot:
    """Draw gains (unless supplied) and derive association and interference."""
    cfg = topo.cfg
    if gains is None:
        gains = link_gains(topo, tx_positions, rng)
    power = topo.tx_power_w
    association = associate_users(topo, gains, alloc.regional)
    interference = co_channel_interference(
        topo, gains, alloc, power, association, cfg.interference_scope
    )
    return ChannelSnapshot(
        gains=gains,
        association=association,
        interference=interference,
        tx_power_w=power,
    )
