"""Output checks computed apart from the simulator.

Every function here works from the scenario's config values and the raw
arrays a step exposes (gains, allocation, positions, metrics), with numpy
alone: none of them calls into ``specshare``.  The node and user layout is
the one the simulator documents: regions tile left to right, each region
holds two terrestrial base stations and then its UAVs (transmitter rows,
region-major), and its users (user columns, region-major).

A failed check raises ``CheckFailed`` naming the quantity and where it
went wrong.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Free-space path loss: 20 log10 d + 20 log10 f - 147.55 (d in m, f in Hz).
FSPL_OFFSET_DB = -147.55
# Gains are floored and capped to this range in the simulator's contract.
GAIN_FLOOR, GAIN_CAP = 1e-30, 1.0
# Log-normal shadowing standard deviation of the unfrozen channel, in dB.
SHADOWING_STD_DB = 4.0

# Rates, eta and gains are recomputed in another order of operations than
# the simulator's; these bound the floating-point difference, far below any
# modelling error.
RATE_RTOL = 1e-9
GAIN_RTOL = 1e-12
# Power budget slack, matching the simulator's stated feasibility tolerance.
BUDGET_TOL = 1e-9
# Fairness bounds are compared with this slack for float rounding.
FAIR_TOL = 1e-12
# The mean gain ratio must lie within this many standard errors.
RATIO_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """An output of the simulator disagrees with the benchmark's own value."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


# -- scenario facts from the config ------------------------------------------------


def nodes_per_region(cfg) -> int:
    return 2 + cfg.uavs_per_region


def num_regions(cfg) -> int:
    return cfg.beams * cfg.haps_per_beam * cfg.regions_per_hap


def uav_row_mask(cfg) -> np.ndarray:
    """(T,) True on UAV rows: the rows after each region's two base stations."""
    m = nodes_per_region(cfg)
    return np.tile(np.arange(m) >= 2, num_regions(cfg))


def tx_power_w(cfg) -> np.ndarray:
    """(T,) transmit power in watts from the config's dBm figures."""
    dbm = np.where(uav_row_mask(cfg), cfg.tx_power_uav, cfg.tx_power_tbs)
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_w(cfg) -> float:
    """Thermal noise power on one subband, in watts."""
    return 10.0 ** ((cfg.noise_psd - 30.0) / 10.0) * cfg.total_bandwidth / cfg.num_subbands


def free_space_gain(tx_positions: np.ndarray, user_positions: np.ndarray, carrier_hz: float) -> np.ndarray:
    """(T, U) linear free-space gain 10^(-FSPL/10) between every transmitter and user."""
    d = np.linalg.norm(tx_positions[:, None, :] - user_positions[None, :, :], axis=2)
    fspl = 20.0 * np.log10(d) + 20.0 * math.log10(carrier_hz) + FSPL_OFFSET_DB
    return 10.0 ** (-fspl / 10.0)


# -- rates ----------------------------------------------------------------------------


def shannon_rates(cfg, gains, regional, beta, alpha):
    """Per-user Shannon rates (..., U) and eta (...) for allocations (..., T, N).

    Each user is served by the node of its own region with the highest gain
    among those holding any regional grant (lowest row on ties), or by none
    when no node of its region holds one.  Interference on a subband sums
    every other active node in scope (all nodes, or the user's region), so
    the user's own link is left out of the sum rather than subtracted.
    Leading axes of the allocation arrays are independent candidates.
    """
    T, U = gains.shape
    m, k = nodes_per_region(cfg), cfg.users_per_region
    same_region = (np.arange(T)[:, None] // m) == (np.arange(U)[None, :] // k)  # (T, U)
    holds = regional.astype(bool).any(axis=-1)  # (..., T)
    candidates = same_region & holds[..., :, None]  # (..., T, U)
    served = candidates.any(axis=-2)  # (..., U)
    serving = np.where(candidates, gains, -np.inf).argmax(axis=-2)  # (..., U)

    active = regional.astype(bool) & beta.astype(bool)
    psd = np.where(active, alpha, 0.0) * tx_power_w(cfg)[:, None]  # (..., T, N)
    others = np.arange(T)[:, None] != serving[..., None, :]  # (..., T, U)
    if cfg.interference_scope == "region":
        others = others & same_region
    interference = np.swapaxes(np.where(others, gains, 0.0), -1, -2) @ psd  # (..., U, N)

    own_gain = gains[serving, np.arange(U)]  # (..., U)
    own_psd = np.take_along_axis(psd, serving[..., :, None], axis=-2)  # (..., U, N)
    sinr = own_gain[..., None] * own_psd / (interference + noise_w(cfg))
    sinr = np.where(served[..., None], sinr, 0.0)
    rates = cfg.total_bandwidth / cfg.num_subbands * np.log2(1.0 + sinr).sum(axis=-1)
    return rates, rates.sum(axis=-1) / cfg.total_bandwidth


def check_rates(cfg, gains, alloc, user_rates, eta) -> None:
    """The env's user rates and eta equal the benchmark's Shannon computation."""
    mine, my_eta = shannon_rates(cfg, gains, alloc.regional, alloc.beta, alloc.alpha)
    # one bit/s per subband-Hz of slack, scaled by the tolerance
    atol = RATE_RTOL * cfg.total_bandwidth / cfg.num_subbands
    err = np.abs(np.asarray(user_rates) - mine)
    bad = err > RATE_RTOL * np.abs(mine) + atol
    if bad.any():
        u = int(np.argmax(bad))
        _fail(f"user rate {u}: env {user_rates[u]!r}, Shannon {mine[u]!r}")
    if not abs(eta - my_eta) <= RATE_RTOL * abs(my_eta) + atol / cfg.total_bandwidth:
        _fail(f"eta: env {eta!r}, sum of rates over bandwidth {my_eta!r}")


# -- allocation constraints --------------------------------------------------------


def _binary(name: str, x: np.ndarray) -> None:
    bad = (x != 0) & (x != 1)
    if bad.any():
        _fail(f"{name} entry {tuple(np.argwhere(bad)[0])} is {x[bad][0]!r}, not 0/1")


def check_allocation(cfg, alloc) -> None:
    """Every constraint of the nested allocation, re-checked from scratch."""
    g, reg, beta, alpha, dp = alloc.global_alloc, alloc.regional, alloc.beta, alloc.alpha, alloc.dp
    T, N, m = num_regions(cfg) * nodes_per_region(cfg), cfg.num_subbands, nodes_per_region(cfg)
    for name, arr, shape in (
        ("global", g, (cfg.beams, N)),
        ("regional", reg, (T, N)),
        ("beta", beta, (T, N)),
        ("alpha", alpha, (T, N)),
        ("dp", dp, (T, 2)),
    ):
        if arr.shape != shape:
            _fail(f"{name} has shape {arr.shape}, expected {shape}")
    _binary("global", g)
    _binary("regional", reg)
    _binary("beta", beta)
    per_subband = g.sum(axis=0)
    if (per_subband > 1).any():
        _fail(f"subband {int(np.argmax(per_subband > 1))} granted to more than one beam")
    per_region = reg.reshape(-1, m, N).sum(axis=1)  # (R, N)
    if (per_region > 1).any():
        r, n = np.argwhere(per_region > 1)[0]
        _fail(f"subband {n} used by more than one node in region {r}")
    regions_per_beam = cfg.haps_per_beam * cfg.regions_per_hap
    row_beam = np.arange(T) // m // regions_per_beam
    if (reg > g[row_beam]).any():
        row, n = np.argwhere(reg > g[row_beam])[0]
        _fail(f"row {row} uses subband {n} its beam does not hold")
    if (beta > reg).any():
        row, n = np.argwhere(beta > reg)[0]
        _fail(f"row {row} accesses subband {n} without a regional grant")
    if not ((alpha >= 0) & (alpha <= 1)).all():
        _fail("alpha outside [0, 1]")
    budget = (alpha * beta).sum(axis=1)
    if (budget > 1 + BUDGET_TOL).any():
        _fail(f"row {int(np.argmax(budget))} spends power fraction {budget.max()!r} > 1")
    if not (np.abs(dp) <= cfg.uav_step + BUDGET_TOL).all():
        _fail(f"movement {np.abs(dp).max()!r} m exceeds uav_step {cfg.uav_step}")
    if (dp[~uav_row_mask(cfg)] != 0).any():
        _fail("a non-UAV row moves")


# -- metrics -------------------------------------------------------------------------


def check_metrics(cfg, metrics) -> None:
    """All metrics finite; Jain fairness within [1/K, 1] network-wide and per region."""
    for name, value in vars(metrics).items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            _fail(f"metric {name} is not finite")
    k, users = cfg.users_per_region, num_regions(cfg) * cfg.users_per_region
    for name, value, count in (
        ("fairness", np.asarray(metrics.fairness), users),
        ("region_fairness", np.asarray(metrics.region_fairness), k),
    ):
        if ((value < 1.0 / count - FAIR_TOL) | (value > 1.0 + FAIR_TOL)).any():
            _fail(f"{name} {value!r} outside [1/{count}, 1]")


# -- channel ---------------------------------------------------------------------------


def frozen_gains(cfg, tx_positions, user_positions) -> np.ndarray:
    """The gains frozen fading gives: free-space gains held to the gain range."""
    fsg = free_space_gain(tx_positions, user_positions, cfg.carrier_freq)
    return np.minimum(GAIN_CAP, np.maximum(GAIN_FLOOR, fsg))


def check_frozen_gains(cfg, gains, tx_positions, user_positions) -> None:
    """Frozen fading: each gain is the free-space gain, within the gain range."""
    fsg = frozen_gains(cfg, tx_positions, user_positions)
    bad = np.abs(gains - fsg) > GAIN_RTOL * fsg
    if bad.any():
        t, u = np.argwhere(bad)[0]
        _fail(f"gain ({t}, {u}) is {gains[t, u]!r}, free space gives {fsg[t, u]!r}")


def fading_moments() -> tuple[float, float]:
    """Mean and variance of (4 dB log-normal shadowing x unit-mean Rayleigh) power.

    With s = sigma ln10 / 10, the shadowing factor 10^(-X/10) has moments
    E = exp(s^2/2) and E[.^2] = exp(2 s^2); an exponential has E[F^2] = 2.
    """
    s = SHADOWING_STD_DB * math.log(10.0) / 10.0
    mean = math.exp(s * s / 2.0)
    return mean, 2.0 * math.exp(2.0 * s * s) - mean * mean


def gain_ratio_sum(cfg, gains, tx_positions, user_positions) -> tuple[float, int]:
    """Sum and count of gain / free-space gain over every link of one step."""
    ratio = gains / free_space_gain(tx_positions, user_positions, cfg.carrier_freq)
    return float(ratio.sum()), ratio.size


def check_gain_ratio(total: float, count: int) -> float:
    """The mean gain ratio over ``count`` links matches the fading model's mean."""
    mean, var = fading_moments()
    got = total / count
    tol = RATIO_SIGMAS * math.sqrt(var / count)
    if not abs(got - mean) <= tol:
        _fail(f"mean gain / free-space gain {got!r}, expected {mean!r} +- {tol!r}")
    return got


def check_served(count: int) -> int:
    if count <= 0:
        _fail("no user was served on any checked step")
    return count


# -- training -----------------------------------------------------------------------------


def expected_updates(cfg, episodes: int) -> dict[str, int]:
    """PPO updates per tier after ``episodes`` episodes of hdrl training.

    Each tier buffers one transition per entity per decision and updates
    once the buffer holds a batch: the local tier (every node, every step)
    needs ``batch_size``, the regional tier (every HAP, every ``dh`` steps)
    a tenth of it and the global tier (one decision every ``ds`` steps) a
    fiftieth, each at least 8.  The buffer empties at each update, so a
    tier updates every ceil(threshold / per-episode) episodes.
    """
    bs = cfg.ppo.batch_size
    steps = cfg.steps_per_episode
    ds, dh, _ = cfg.decision_intervals
    per_episode = {
        "local": num_regions(cfg) * nodes_per_region(cfg) * steps,
        "regional": cfg.beams * cfg.haps_per_beam * math.ceil(steps / dh),
        "global": math.ceil(steps / ds),
    }
    threshold = {"local": bs, "regional": max(8, bs // 10), "global": max(8, bs // 50)}
    return {
        tier: episodes // math.ceil(threshold[tier] / per_episode[tier]) for tier in per_episode
    }


def check_updates(cfg, episodes: int, counted: dict[str, int], reported: int) -> None:
    """The updates that ran per tier are the config's count, and the agent's total."""
    want = expected_updates(cfg, episodes)
    if counted != want:
        _fail(f"PPO updates per tier {counted} after {episodes} episodes, config implies {want}")
    if reported != sum(counted.values()):
        _fail(f"agent reports {reported} updates, {counted} ran")


def check_finite_params(nets: dict) -> None:
    for name, net in nets.items():
        for key, value in net.params.items():
            if not np.isfinite(value).all():
                _fail(f"parameter {name}.{key} is not finite")


# -- exhaustive optimum -----------------------------------------------------------------


def enumerate_optimum(cfg, gains) -> tuple[float, int]:
    """Best eta over every joint (global, regional) allocation, and the count.

    Per subband: leave it idle, or grant it to one beam and let each of
    that beam's regions give it to one of its nodes or to none.  The local
    action is the exhaustive agent's heuristic: access on every granted
    subband, power split equally, no movement.
    """
    m, n, beams = nodes_per_region(cfg), cfg.num_subbands, cfg.beams
    per_beam = cfg.haps_per_beam * cfg.regions_per_hap
    T = num_regions(cfg) * m
    options = [np.zeros(T, dtype=np.int8)]  # idle
    for beam in range(beams):
        for picks in itertools.product(range(m + 1), repeat=per_beam):
            col = np.zeros(T, dtype=np.int8)
            for i, pick in enumerate(picks):
                if pick:
                    col[(beam * per_beam + i) * m + pick - 1] = 1
            options.append(col)
    options = np.array(options)  # (O, T)
    count = len(options) ** n
    if count > cfg.exhaustive_cap:
        raise ValueError(f"{count} joint allocations exceed exhaustive_cap {cfg.exhaustive_cap}")
    choice = np.array(list(itertools.product(range(len(options)), repeat=n)))  # (C, N)
    regional = np.swapaxes(options[choice], 1, 2)  # (C, T, N)
    per_row = regional.sum(axis=2, keepdims=True)
    alpha = np.divide(regional, per_row, out=np.zeros(regional.shape), where=per_row > 0)
    _, eta = shannon_rates(cfg, gains, regional, regional, alpha)
    return float(eta.max()), count


def check_exhaustive(cfg, home_positions, user_positions, solved_eta: float, step_etas) -> tuple[float, int, float]:
    """exhaustive_solve's eta is the enumerated optimum, and so is every step's eta.

    The gains are the free-space gains at the transmitters' home positions
    (frozen fading, no movement).  Returns the optimum, the candidate
    count and the largest step deviation.
    """
    best, count = enumerate_optimum(cfg, frozen_gains(cfg, home_positions, user_positions))
    tol = RATE_RTOL * best
    if abs(solved_eta - best) > tol:
        _fail(f"exhaustive_solve eta {solved_eta!r}, enumeration of {count} allocations gives {best!r}")
    worst = max(abs(e - solved_eta) for e in step_etas)
    if worst > tol:
        _fail(f"an exhaustive step's eta is {worst!r} off the optimum {solved_eta!r}")
    return best, count, worst
