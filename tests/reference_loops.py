"""Reference oracle: the per-region and per-row loop forms of the step.

These are the straight loop versions of code that the package now computes
on region blocks: ``validate``, the per-row ``clamp_local`` pass of the
local apply, the (T, U, 3) distances and per-row fading draw of the link
gains, user association, region-scope interference, the region loop of the
step metrics, and the three observation builders.  They are kept only as a
reference for ``test_vectorized_oracle.py``, which requires the
block versions to reproduce them bit for bit.  ``exhaustive_solve_loop``
walks the exhaustive search one candidate at a time; ``test_exhaustive.py``
requires the batched ``exhaustive_solve`` to pick the same optimum.
"""

from __future__ import annotations

import itertools

import numpy as np

from specshare import metrics
from specshare.agents import count_joint_candidates, slots_to_global
from specshare.allocation import BUDGET_TOL, AllocationState, EnumerationCapError, LocalAction, Violation
from specshare.channel import associate_users, co_channel_interference, link_gains
from specshare.config import ScenarioConfig
from specshare.metrics import StepMetrics, sinr, user_rate
from specshare.topology import TIER_UAV, build_topology
from topo_helpers import beam_of_region, region_of_hap, region_transmitter_rows, region_user_slice

_RESCALE_TOL = 1e-12
GAIN_DB_RANGE = (-160.0, -60.0)
INTERFERENCE_DBM_RANGE = (-150.0, -40.0)
_MIN_GAIN = 1e-30
SHADOWING_STD_DB = 4.0


# -- allocation ------------------------------------------------------------------


def validate_loop(state: AllocationState, cfg, uav_step: float | None = None) -> Violation | None:
    """Return the first violated constraint, or None when feasible."""
    if uav_step is None:
        uav_step = cfg.uav_step
    g = state.global_alloc
    if g.shape != (cfg.beams, cfg.num_subbands):
        return Violation("shape", g.shape, "global allocation has wrong shape")
    if not np.isin(g, (0, 1)).all():
        bad = np.argwhere(~np.isin(g, (0, 1)))[0]
        return Violation("binary", tuple(bad), "global allocation entries must be 0/1")
    col = g.sum(axis=0)
    if (col > 1).any():
        n = int(np.argmax(col > 1))
        return Violation("beam-conflict", (n,), f"subband {n} granted to {col[n]} beams")

    if not np.isin(state.regional, (0, 1)).all():
        bad = np.argwhere(~np.isin(state.regional, (0, 1)))[0]
        return Violation("binary", tuple(bad), "regional allocation entries must be 0/1")
    m = cfg.nodes_per_region
    for region in range(cfg.num_regions):
        rows = state.regional[region * m : (region + 1) * m]
        col = rows.sum(axis=0)
        if (col > 1).any():
            n = int(np.argmax(col > 1))
            return Violation(
                "region-conflict", (region, n), f"subband {n} used by {col[n]} nodes in region {region}"
            )
        beam = (region // cfg.regions_per_hap) // cfg.haps_per_beam
        excess = rows.any(axis=0) & (g[beam] == 0)
        if excess.any():
            n = int(np.argmax(excess))
            return Violation(
                "grant-nesting", (region, n), f"region {region} uses subband {n} not granted to beam {beam}"
            )

    if not np.isin(state.beta, (0, 1)).all():
        bad = np.argwhere(~np.isin(state.beta, (0, 1)))[0]
        return Violation("binary", tuple(bad), "beta entries must be 0/1")
    over = (state.beta == 1) & (state.regional == 0)
    if over.any():
        row, n = np.argwhere(over)[0]
        return Violation("access-mask", (int(row), int(n)), "beta set on an ungranted subband")

    if (state.alpha < 0).any() or (state.alpha > 1).any():
        row, n = np.argwhere((state.alpha < 0) | (state.alpha > 1))[0]
        return Violation("power-range", (int(row), int(n)), "alpha outside [0, 1]")
    used = (state.beta * state.alpha).sum(axis=1)
    if (used > 1.0 + BUDGET_TOL).any():
        row = int(np.argmax(used))
        return Violation("power-budget", (row,), f"active power fractions sum to {used[row]:.6f}")

    if (np.abs(state.dp) > uav_step + BUDGET_TOL).any():
        row, axis = np.argwhere(np.abs(state.dp) > uav_step + BUDGET_TOL)[0]
        return Violation("movement-limit", (int(row), int(axis)), f"|dp| exceeds {uav_step} m")
    return None


def clamp_local_row(beta, alpha, dp, granted, uav_step: float, is_uav: bool) -> LocalAction:
    """Project one node's raw local action onto the feasible set."""
    b = (np.asarray(beta) > 0.5).astype(np.int8) * np.asarray(granted, dtype=np.int8)
    a = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
    used = float((b * a).sum())
    if used > 1.0 + _RESCALE_TOL:
        a = a / used
    if is_uav:
        d = np.clip(np.asarray(dp, dtype=float), -uav_step, uav_step)
    else:
        d = np.zeros(2)
    return LocalAction(beta=b, alpha=a, dp=d)


def apply_local_loop(alloc: AllocationState, local: dict, cfg, topo) -> None:
    """The env's local apply, one ``clamp_local_row`` call per transmitter row."""
    beta = np.asarray(local["beta"])
    alpha = np.asarray(local["alpha"])
    dp = np.asarray(local["dp"])
    is_uav = np.array([n.tier == TIER_UAV for n in topo.transmitters()])
    for row in range(cfg.num_transmitters):
        act = clamp_local_row(
            beta[row], alpha[row], dp[row], alloc.regional[row], cfg.uav_step, is_uav[row]
        )
        alloc.beta[row] = act.beta
        alloc.alpha[row] = act.alpha
        alloc.dp[row] = act.dp


# -- channel ---------------------------------------------------------------------


def link_gains_loop(
    topo, tx_positions: np.ndarray, rng: np.random.Generator | None, frozen: bool = False
) -> np.ndarray:
    """Gains from a (T, U, 3) difference summed over its last axis, with path
    loss written out as one expression.  Unfrozen: one shadowing draw for
    the matrix, then the Rayleigh fading drawn row by row (each row one
    unit-mean exponential draw).  Frozen: no draw, shadowing 0, fading 1."""
    users = topo.user_positions
    diff = tx_positions[:, None, :] - users[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    pl = 20.0 * np.log10(dist) + 20.0 * np.log10(topo.cfg.carrier_freq) - 147.55
    if frozen:
        return np.clip(10.0 ** (-pl / 10.0), _MIN_GAIN, 1.0)
    shadow = rng.normal(0.0, SHADOWING_STD_DB, size=pl.shape)
    fading = np.empty_like(pl)
    for row in range(pl.shape[0]):
        fading[row] = np.maximum(rng.exponential(1.0, size=pl.shape[1]), 1e-12)
    gains = 10.0 ** (-(pl + shadow) / 10.0) * fading
    return np.clip(gains, _MIN_GAIN, 1.0)


def associate_users_loop(topo, gains: np.ndarray, regional: np.ndarray) -> np.ndarray:
    """Serve each user from its region's best-gain node among grant holders."""
    cfg = topo.cfg
    association = np.full(cfg.num_users, -1, dtype=int)
    holds = regional.sum(axis=1) > 0
    for region in range(cfg.num_regions):
        rows = region_transmitter_rows(topo, region)
        candidates = rows[holds[rows]]
        if candidates.size == 0:
            continue
        sl = region_user_slice(topo, region)
        best = np.argmax(gains[candidates, sl], axis=0)
        association[sl] = candidates[best]
    return association


def interference_loop(topo, gains, alloc, tx_power_w, association, scope: str) -> np.ndarray:
    """Interference per (user, subband), region scope summed region by region."""
    cfg = topo.cfg
    active = (alloc.regional * alloc.beta).astype(float)
    tx_psd = active * alloc.alpha * tx_power_w[:, None]
    if scope == "region":
        total = np.zeros((cfg.num_users, cfg.num_subbands))
        for region in range(cfg.num_regions):
            rows = region_transmitter_rows(topo, region)
            sl = region_user_slice(topo, region)
            total[sl] = gains[rows, sl].T @ tx_psd[rows]
    else:
        total = gains.T @ tx_psd
    served = association >= 0
    u_idx = np.nonzero(served)[0]
    if u_idx.size:
        s_rows = association[u_idx]
        total[u_idx] -= gains[s_rows, u_idx][:, None] * tx_psd[s_rows]
        np.maximum(total, 0.0, out=total)
    return total


# -- metrics ---------------------------------------------------------------------


def spectral_efficiency(rates, total_bandwidth: float) -> float:
    return float(np.sum(rates) / total_bandwidth)


def jain_fairness(rates) -> float:
    r = np.asarray(rates, dtype=float)
    total = r.sum()
    if total == 0.0:
        return 1.0
    return float(total * total / (r.size * (r * r).sum()))


def qos_violation(rates, r_min: float) -> float:
    r = np.asarray(rates, dtype=float)
    return float(max(0.0, r_min - r.min()))


def uav_penalty_loop(positions: np.ndarray, bounds) -> float:
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if pos.shape[0] == 0:
        return 0.0
    x0, y0, x1, y1 = bounds
    outside = (pos[:, 0] < x0) | (pos[:, 0] > x1) | (pos[:, 1] < y0) | (pos[:, 1] > y1)
    return float(outside.mean())


def step_metrics_loop(topo, alloc, snap, tx_positions, norms) -> StepMetrics:
    cfg = topo.cfg
    n_users, n_sub = cfg.num_users, cfg.num_subbands
    noise = cfg.noise_power_w

    sinr_matrix = np.zeros((n_users, n_sub))
    served = np.nonzero(snap.association >= 0)[0]
    if served.size:
        rows = snap.association[served]
        active = (alloc.regional[rows] * alloc.beta[rows]).astype(float)
        signal = (
            snap.gains[rows, served][:, None]
            * alloc.alpha[rows]
            * snap.tx_power_w[rows, None]
            * active
        )
        sinr_matrix[served] = signal / (snap.interference[served] + noise)

    per_band = cfg.subband_bandwidth
    user_rates = per_band * np.log2(1.0 + sinr_matrix).sum(axis=1)

    n_regions = cfg.num_regions
    region_eta = np.zeros(n_regions)
    region_fair = np.zeros(n_regions)
    region_qos = np.zeros(n_regions)
    region_uav = np.zeros(n_regions)
    region_rate_mean = np.zeros(n_regions)
    txs = topo.transmitters()
    for region in range(n_regions):
        sl = region_user_slice(topo, region)
        rates = user_rates[sl]
        region_eta[region] = spectral_efficiency(rates, cfg.total_bandwidth)
        region_fair[region] = jain_fairness(rates)
        region_qos[region] = qos_violation(rates, cfg.r_min)
        region_rate_mean[region] = rates.mean()
        rows = region_transmitter_rows(topo, region)
        uav_rows = [r for r in rows if txs[r].tier == TIER_UAV]
        region_uav[region] = uav_penalty_loop(tx_positions[uav_rows], topo.region_bounds[region])

    r_l = (
        cfg.reward_weights.w_rate * region_rate_mean / norms.rate_norm
        + cfg.reward_weights.w_eff * region_eta / norms.eff_norm
        + cfg.reward_weights.w_fair * region_fair
        + cfg.reward_weights.w_uav * region_uav
        + cfg.reward_weights.w_qos * region_qos / norms.rate_norm
    )
    r_h = r_l.reshape(-1, cfg.regions_per_hap).mean(axis=1)
    r_s = float(r_h.mean())

    granted = int(alloc.regional.sum())
    active_cnt = int((alloc.regional * alloc.beta).sum())
    utilization = active_cnt / granted if granted else 0.0

    return StepMetrics(
        sinr=sinr_matrix,
        user_rates=user_rates,
        region_eta=region_eta,
        region_fairness=region_fair,
        region_qos=region_qos,
        region_uav_penalty=region_uav,
        region_rate_mean=region_rate_mean,
        r_avg=float(user_rates.mean()),
        eta=spectral_efficiency(user_rates, cfg.total_bandwidth),
        fairness=jain_fairness(user_rates),
        r_l=r_l,
        r_h=r_h,
        r_s=r_s,
        spectrum_utilization=utilization,
    )


# -- observations ----------------------------------------------------------------


def gain_to_unit(gain_linear) -> np.ndarray:
    lo, hi = GAIN_DB_RANGE
    db = 10.0 * np.log10(np.maximum(gain_linear, _MIN_GAIN))
    return np.clip((db - lo) / (hi - lo), 0.0, 1.0)


def interference_to_unit_loop(interference_w) -> np.ndarray:
    lo, hi = INTERFERENCE_DBM_RANGE
    iw = np.asarray(interference_w, dtype=float)
    dbm = np.full(iw.shape, lo)
    pos = iw > 0
    dbm[pos] = 10.0 * np.log10(iw[pos]) + 30.0
    return np.clip((dbm - lo) / (hi - lo), 0.0, 1.0)


def _user_xy_unit(topo, region):
    x0, y0, x1, y1 = topo.region_bounds[region]
    pos = topo.user_positions[region_user_slice(topo, region)]
    unit = np.stack([(pos[:, 0] - x0) / (x1 - x0), (pos[:, 1] - y0) / (y1 - y0)], axis=1)
    return unit.reshape(-1)


def region_gain_row_means_loop(topo, gains) -> np.ndarray:
    out = np.zeros(topo.cfg.num_transmitters)
    for region in range(topo.cfg.num_regions):
        rows = region_transmitter_rows(topo, region)
        sl = region_user_slice(topo, region)
        out[rows] = gains[rows, sl].mean(axis=1)
    return out


def observe_global_loop(topo, state) -> np.ndarray:
    cfg = topo.cfg
    alloc = state.alloc
    avail = 1.0 - alloc.global_alloc.any(axis=0)
    row_means = region_gain_row_means_loop(topo, state.snapshot.gains)
    beam_regions = [
        [r for r in range(cfg.num_regions) if beam_of_region(topo, r) == beam]
        for beam in range(cfg.beams)
    ]
    beam_user_share = np.array(
        [len(rs) * cfg.users_per_region / cfg.num_users for rs in beam_regions]
    )
    beam_gain = np.zeros(cfg.beams)
    for beam, regions in enumerate(beam_regions):
        rows = np.concatenate([region_transmitter_rows(topo, r) for r in regions])
        beam_gain[beam] = gain_to_unit(row_means[rows].mean())
    return np.concatenate([avail.astype(float), beam_user_share, beam_gain])


def observe_regional_loop(topo, state, hap: int) -> np.ndarray:
    cfg = topo.cfg
    beam = hap // cfg.haps_per_beam
    mask = state.alloc.global_alloc[beam].astype(float)
    regions = region_of_hap(topo, hap)
    rows = np.concatenate([region_transmitter_rows(topo, r) for r in regions])
    assoc = state.snapshot.association
    counts = np.bincount(assoc[assoc >= 0], minlength=cfg.num_transmitters)
    hap_users = cfg.regions_per_hap * cfg.users_per_region
    load = counts[rows] / hap_users
    gain = gain_to_unit(region_gain_row_means_loop(topo, state.snapshot.gains)[rows])
    return np.concatenate([mask, load, gain])


def observe_local_loop(topo, state) -> dict:
    """Local observation vectors, built region by region and row by row."""
    cfg = topo.cfg
    gains = state.snapshot.gains
    local = {}
    for region in range(cfg.num_regions):
        rows = region_transmitter_rows(topo, region)
        sl = region_user_slice(topo, region)
        x0, y0, x1, y1 = topo.region_bounds[region]
        user_xy = _user_xy_unit(topo, region)
        interf = interference_to_unit_loop(state.snapshot.interference[sl].mean(axis=0))
        gain_block = gain_to_unit(gains[rows, sl])
        pos = state.tx_positions[rows]
        own_unit = np.clip(
            np.stack([(pos[:, 0] - x0) / (x1 - x0), (pos[:, 1] - y0) / (y1 - y0)], axis=1),
            0.0,
            1.0,
        )
        for j, row in enumerate(rows):
            local[int(row)] = np.concatenate(
                [
                    state.alloc.regional[row].astype(float),
                    user_xy,
                    own_unit[j],
                    gain_block[j],
                    interf,
                ]
            )
    return local


def observe_all_loop(topo, state) -> dict:
    return {
        "global": observe_global_loop(topo, state),
        "regional": {h: observe_regional_loop(topo, state, h) for h in range(topo.cfg.num_haps)},
        "local": observe_local_loop(topo, state),
    }


# -- exhaustive search ------------------------------------------------------------


def exhaustive_solve_loop(cfg: ScenarioConfig, cap: int | None = None) -> dict:
    """Enumerate every joint (global, regional) allocation under frozen fading.

    Local actions are fixed to a heuristic: full access on granted subbands,
    equal power split, no movement; the best candidate's local action is
    returned under "local".  The best candidate maximizes network spectral
    efficiency, with network fairness breaking ties.  Requires fading_frozen.
    """
    if not cfg.fading_frozen:
        raise ValueError("exhaustive_solve requires fading_frozen=true")
    cap = cfg.exhaustive_cap if cap is None else cap
    total = count_joint_candidates(cfg)
    if total > cap:
        raise EnumerationCapError(
            f"search space too large: {total} joint allocations exceed cap {cap}"
        )

    topo = build_topology(cfg, np.random.default_rng(cfg.seed))
    home = np.stack([nd.position for nd in topo.transmitters()])
    gains = link_gains(topo, home, rng=None, frozen=True)
    power = topo.tx_power_w
    noise = cfg.noise_power_w
    n, m = cfg.num_subbands, cfg.nodes_per_region
    n_regions = cfg.num_regions

    best = None
    for combo in itertools.product(range(cfg.beams + 1), repeat=n):
        combo_arr = np.asarray(combo)
        global_alloc = slots_to_global(combo_arr, cfg.beams)
        granted_cols = [np.nonzero(combo_arr == beam + 1)[0] for beam in range(cfg.beams)]
        region_options = []
        for region in range(n_regions):
            cols = granted_cols[topo.region_beam[region]]
            region_options.append(
                [
                    (cols, np.asarray(assign))
                    for assign in itertools.product(range(m + 1), repeat=len(cols))
                ]
            )
        for joint in itertools.product(*region_options):
            regional = np.zeros((cfg.num_transmitters, n), dtype=np.int8)
            for region, (cols, assign) in enumerate(joint):
                chosen = assign > 0
                if chosen.any():
                    rows = region * m + (assign[chosen] - 1)
                    regional[rows, cols[chosen]] = 1
            counts = regional.sum(axis=1)
            alpha = np.divide(
                regional, counts[:, None], out=np.zeros(regional.shape), where=counts[:, None] > 0
            )
            alloc = AllocationState(
                global_alloc=global_alloc,
                regional=regional,
                beta=regional,
                alpha=alpha,
                dp=np.zeros((cfg.num_transmitters, 2)),
            )
            assoc = associate_users(topo, gains, regional)
            interference = co_channel_interference(
                topo, gains, alloc, power, assoc, cfg.interference_scope
            )
            rates = np.zeros(cfg.num_users)
            served = np.nonzero(assoc >= 0)[0]
            if served.size:
                rows = assoc[served]
                snr = sinr(
                    gains[rows, served][:, None],
                    alpha[rows] * regional[rows],
                    power[rows, None],
                    interference[served],
                    noise,
                )
                rates[served] = user_rate(snr, cfg.total_bandwidth, n)
            eta = metrics.spectral_efficiency(rates, cfg.total_bandwidth)
            fair = metrics.jain_fairness(rates)
            if best is None or eta > best["eta"] or (eta == best["eta"] and fair > best["fairness"]):
                best = {
                    "eta": eta,
                    "fairness": fair,
                    "global": global_alloc.copy(),
                    "regional": {
                        region: regional[region * m : (region + 1) * m].copy()
                        for region in range(n_regions)
                    },
                    "local": {"beta": regional, "alpha": alpha, "dp": alloc.dp},
                }
    best["candidates"] = total
    return best
