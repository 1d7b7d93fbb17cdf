"""Radio propagation: path loss, shadowing, small-scale fading, interference.

Channel power gain for a link is ``10 ** (-(PL + X) / 10) * F`` with
free-space path loss PL, log-normal shadowing X (sigma 4 dB), and a
Rayleigh fading power factor F drawn per link (every transmitter is a
ground node: a TBS or a UAV).  A scenario with ``fading_frozen`` set
(shadowing 0, fading 1) has a deterministic channel, and its gains take no
generator.

The ``Topology`` passed in is the only record of the scenario here: the
carrier frequency, whether fading is frozen, the transmit powers and the
interference scope are all read from it (``topo.cfg``, ``topo.tx_power_w``).

Three rules keep the gains, and every output built on them, byte-identical
for a seed: one shadowing draw, then one fading draw, each over the whole
row-major (transmitters, users) matrix; distances summed
``(dx**2 + dy**2) + dz**2``, the order a sum over a length-3 axis takes;
and only the calling thread draws.  Above ``OVERLAP_MIN_LINKS`` links an
unfrozen ``link_gains`` hands the deterministic passes (distances and path
loss, then ``np.power``) to one lazily started worker thread, on buffers
the calling thread allocated, while it draws; the draws release the GIL,
so the two run side by side and every number is the one computed inline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .allocation import AllocationState
from .topology import Topology

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

SHADOWING_STD_DB = 4.0
# dB range used to squash link gains into [0, 1] observation features
GAIN_DB_RANGE = (-160.0, -60.0)
_MIN_GAIN = 1e-30
# links (transmitters x users) above which unfrozen gains overlap their
# deterministic passes with the draws: at or below it two worker handoffs
# cost more than they save (README, "Channel worker")
OVERLAP_MIN_LINKS = 10_000
# OpenBLAS runs a GEMM on its calling thread while M*N*K stays at or below
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4); the global interference product is
# cut into user chunks under it, so no BLAS thread wakes for it
_BLAS_SERIAL_MNK = 65_536 * 4
# Chunks keep the single product's bits only while every kernel OpenBLAS may
# pick sums a dot product in one pass: its blocked DGEMM splits sums longer
# than DGEMM_Q (384 on SkylakeX) where the small-matrix kernel it takes for
# small chunks does not.  Longer sums keep the single product.
_BLAS_ONE_PASS_K = 384


def path_loss_db(distance_m, carrier_hz: float, out=None) -> np.ndarray:
    """Free-space path loss in dB at one carrier frequency; distance and
    frequency must be positive.  Written into ``out`` if given (which may be
    the distance array itself), else into a fresh array."""
    d = np.asarray(distance_m, dtype=float)
    # min(d) <= 0 reads like (d <= 0).any() (NaN passes both) without a
    # boolean array the size of d
    if d.min(initial=np.inf) <= 0:
        raise ValueError("distance must be > 0")
    if carrier_hz <= 0:
        raise ValueError("carrier frequency must be > 0")
    # 20 log10(d) + 20 log10(f) - 147.55, in place on one array
    pl = np.log10(d, out=out)
    pl *= 20.0
    pl += 20.0 * np.log10(carrier_hz)
    pl -= 147.55
    return pl


def rayleigh_power(rng: np.random.Generator, size, out=None):
    """Rayleigh fading power factor: unit-mean exponential, floored at 1e-12,
    drawn into ``out`` if given."""
    # the numbers and generator state of rng.exponential(1.0, size), without
    # the scale multiply
    power = rng.standard_exponential(size, out=out)
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


def _link_distances(topo: Topology, tx_positions: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(num_transmitters, num_users) distances into ``work[0]`` of a (2, T,
    U) buffer, summed ``(dx**2 + dy**2) + dz**2`` through ``work[1]``: the
    bits of ``.sum(axis=2)`` over a (T, U, 3) difference.  ``hypot`` or
    ``dx**2 + (dy**2 + dz**2)`` changes the last bit of some distances."""
    users, tx = topo.user_xyz, tx_positions.T[:, :, None]
    np.subtract(tx[:2], users[:2, None, :], out=work)
    work *= work
    dist, dz = work
    dist += dz
    np.subtract(tx[2], users[2], out=dz)
    dz *= dz
    dist += dz
    return np.sqrt(dist, out=dist)


def _path_loss(topo: Topology, tx_positions: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Path loss in dB of every link, written into ``work[0]``."""
    dist = _link_distances(topo, tx_positions, work)
    return path_loss_db(dist, topo.cfg.carrier_freq, out=dist)


def _run(worker, fn, *args):
    """``fn(*args)`` handed to ``worker`` (a Future back), or with no worker
    run here (its value back)."""
    return fn(*args) if worker is None else worker.submit(fn, *args)


def _wait(worker, pending):
    """The value of what ``_run(worker, ...)`` handed back."""
    return pending if worker is None else pending.result()


# one worker per process, whatever the number of environments: it only ever
# runs the handful of passes a calling thread waits for
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _channel_worker() -> ThreadPoolExecutor:
    """The one worker thread, started on first use and kept for the process."""
    global _worker
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                # imported here: a process that never needs the worker does
                # not load the module (~0.6 MB resident)
                from concurrent.futures import ThreadPoolExecutor

                _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="specshare-channel")
    return _worker


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

    Unfrozen and above ``OVERLAP_MIN_LINKS`` links, the path loss runs on
    the channel worker while this thread draws the shadowing, and
    ``np.power`` while it draws the fading; only this thread touches
    ``rng``, and every (T, U) buffer is allocated here.  An error on the
    worker (a zero distance, say) is raised here; the generator's state
    after such a raise is unspecified.
    """
    frozen = topo.cfg.fading_frozen
    if not frozen and rng is None:
        raise ValueError("unfrozen fading draws shadowing and fading: rng must not be None")
    shape = (len(tx_positions), topo.user_xyz.shape[1])
    # the result first, then one block for the path loss and the worker's
    # scratch: freed on return, the block leaves one hole above the result
    # that later large temporaries reuse (README, "Channel worker")
    gains = np.empty(shape)
    work = np.empty((2,) + shape)
    worker = None if frozen or gains.size <= OVERLAP_MIN_LINKS else _channel_worker()
    pending = _run(worker, _path_loss, topo, tx_positions, work)
    if frozen:
        shadowed = _wait(worker, pending)
    else:
        shadowed = rng.standard_normal(out=gains)
        shadowed *= SHADOWING_STD_DB
        shadowed += _wait(worker, pending)
    # -(x) / 10 and x / -10 round alike
    np.divide(shadowed, -10.0, out=gains)
    pending = _run(worker, np.power, 10.0, gains, gains)
    if not frozen:
        # the worker is done with work[1]: the path loss came back above
        fading = rayleigh_power(rng, shape, out=work[1])
    _wait(worker, pending)
    if not frozen:
        gains *= fading
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
    topo: Topology, gains: np.ndarray, alloc: AllocationState, association: np.ndarray
) -> np.ndarray:
    """Interference per (user, subband) from other active co-channel nodes,
    at the topology's transmit powers and its scenario's interference scope.

    Reads only ``alloc``'s beta and alpha: a feasible ``beta`` lies inside
    the regional grant.  (T, N) arrays and a (U,) association give (U, N);
    leading candidate axes on all four carry through, so (C, T, N) and
    (C, U) give (C, U, N).
    """
    cfg = topo.cfg
    # beta is 0/1, exact under the cast to float
    tx_psd = alloc.beta * alloc.alpha * topo.tx_power_w[:, None]  # (..., T, N) radiated power
    lead = tx_psd.shape[:-2]
    if cfg.interference_scope == "region":
        blocks = topo.own_region_gains(gains)  # (R, m, k)
        psd = tx_psd.reshape(lead + (cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands))
        total = np.matmul(blocks.transpose(0, 2, 1), psd)
        total = total.reshape(lead + (cfg.num_users, cfg.num_subbands))
    elif lead:
        total = gains.T @ tx_psd  # (C, U, N)
    else:
        total = _serial_matmul(gains.T, tx_psd)  # (U, N)
    # remove each user's own serving contribution; served[-1] holds the users,
    # served[:-1] their candidates
    served = np.nonzero(association >= 0)
    if served[-1].size:
        s_rows = association[served]
        own = gains[s_rows, served[-1]][:, None] * tx_psd[served[:-1] + (s_rows,)]
        total[served] -= own
        np.maximum(total, 0.0, out=total)
    return total


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, in near-equal row chunks of ``a`` small
    enough that OpenBLAS computes each on the calling thread
    (``_BLAS_SERIAL_MNK``), written into one result.  Each chunk stays a
    GEMM of at least two rows (one row, or one column of ``b``, goes to
    GEMV), and sums of at most ``_BLAS_ONE_PASS_K`` terms; there each row is
    the same dot product as in the single call, so the bits are too.  Both
    constants were read off one kernel (scipy-openblas 0.3.31, SkylakeX);
    OpenBLAS picks its kernel from the CPU at run time, so on another CPU
    the bits hold only as far as
    ``test_chunked_interference_product_matches_one_gemm_bitwise`` passes
    there, which is the gate.  Outside those sizes, the single call."""
    (m, k), n = a.shape, b.shape[1]
    rows = _BLAS_SERIAL_MNK // (k * n)
    # rows >= 3 leaves every near-equal chunk at least two rows
    if m <= rows or rows < 3 or n < 2 or k > _BLAS_ONE_PASS_K:
        return a @ b
    out = np.empty((m, n))
    chunks = -(-m // rows)
    bounds = [m * i // chunks for i in range(chunks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        np.matmul(a[start:stop], b, out=out[start:stop])
    return out


def compute_snapshot(
    topo: Topology,
    alloc: AllocationState,
    tx_positions: np.ndarray,
    rng: np.random.Generator | None = None,
    gains: np.ndarray | None = None,
) -> ChannelSnapshot:
    """Draw gains (unless supplied) and derive association and interference."""
    if gains is None:
        gains = link_gains(topo, tx_positions, rng)
    association = associate_users(topo, gains, alloc.regional)
    interference = co_channel_interference(topo, gains, alloc, association)
    return ChannelSnapshot(gains=gains, association=association, interference=interference)
