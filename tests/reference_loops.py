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
``hdrl_greedy_act_loop`` decides greedy hdrl one region and one HAP at a
time (``batch_of`` cuts one batch out of a stacked forward's params), and
``ACT_LOOPS`` holds each learned agent's ``act`` with its own forward,
sampling and pending-decision calls; ``test_vectorized_oracle.py`` requires
the agents, which decide through ``_PolicySlot.decide``, to give the same
bundles, generator states and decisions.  ``sample_action_loop``, through
which the ``ACT_LOOPS`` sample, is ``sample_action`` on one batch as it ran
before it took stacks; ``test_ppo.py`` requires the stacked call to give
every batch its bits and to leave the generator in its state.
``SlotBook`` keeps a slot's transitions one entity at a time (a pending
decision per entity, flushed into the entity's own ``EntityTrajectory``),
with ``RECORD_LOOPS`` and ``end_episode_loop`` as the agents' ``record``
and ``end_episode``;
``test_vectorized_oracle.py`` requires every batch the agents hand to
``ppo_update`` to be the books' batch, and ``test_ppo.py`` requires
``Trajectory.finalize`` to give the rows of its entities' ``EntityTrajectory``.
``ppo_update_loop`` runs the PPO update on per-key dicts of new arrays
(``loss_and_grads_loop``, ``clip_grad_norm_loop``, ``AdamLoop``);
``test_ppo.py`` requires the flat-buffer ``ppo_update`` to give the same
parameters, moments, grads, report and generator state.
"""

from __future__ import annotations

import itertools

import numpy as np

from specshare import ppo
from specshare.agents import SearchRefusedError, count_joint_candidates, slots_to_region
from specshare.allocation import BUDGET_TOL, AllocationState, Violation
from specshare.channel import associate_users, co_channel_interference, link_gains
from specshare.config import ScenarioConfig
from specshare.metrics import StepMetrics, sinr, user_rate
from specshare.ppo import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    MAX_GRAD_NORM,
    ActionBatch,
    DistParams,
    LossReport,
    UpdateReport,
    _clip,
    _LOG_2PI,
    _cont_entropy,
    _log_softmax_runs,
    _picked,
    _probs_and_entropy,
    _unsquash,
    forward,
    log_prob,
    mode_action,
    mode_cont,
    mode_slots,
)
from specshare.topology import REFERENCE_SINR, TIER_UAV, build_topology
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

    # a NaN is out of range: it compares false with both bounds
    out = ~((state.alpha >= 0) & (state.alpha <= 1))
    if out.any():
        row, n = np.argwhere(out)[0]
        return Violation("power-range", (int(row), int(n)), "alpha outside [0, 1]")
    used = (state.beta * state.alpha).sum(axis=1)
    if (used > 1.0 + BUDGET_TOL).any():
        row = int(np.argmax(used))
        return Violation("power-budget", (row,), f"active power fractions sum to {used[row]:.6f}")

    far = ~(np.abs(state.dp) <= uav_step + BUDGET_TOL)
    if far.any():
        row, axis = np.argwhere(far)[0]
        return Violation("movement-limit", (int(row), int(axis)), f"|dp| exceeds {uav_step} m")
    return None


def clamp_local_row(beta, alpha, dp, granted, uav_step: float, is_uav: bool) -> tuple:
    """Project one node's raw local action onto the feasible set: (beta, alpha, dp)."""
    b = (np.asarray(beta) > 0.5).astype(np.int8) * np.asarray(granted, dtype=np.int8)
    a = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
    used = float((b * a).sum())
    if used > 1.0 + _RESCALE_TOL:
        a = a / used
    if is_uav:
        d = np.clip(np.asarray(dp, dtype=float), -uav_step, uav_step)
    else:
        d = np.zeros(2)
    return b, a, d


def apply_local_loop(alloc: AllocationState, local: dict, cfg, topo) -> None:
    """The env's local apply, one ``clamp_local_row`` call per transmitter row."""
    beta = np.asarray(local["beta"])
    alpha = np.asarray(local["alpha"])
    dp = np.asarray(local["dp"])
    is_uav = np.array([n.tier == TIER_UAV for n in topo.transmitters()])
    for row in range(cfg.num_transmitters):
        alloc.beta[row], alloc.alpha[row], alloc.dp[row] = clamp_local_row(
            beta[row], alpha[row], dp[row], alloc.regional[row], cfg.uav_step, is_uav[row]
        )


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


def step_metrics_loop(topo, alloc, snap, tx_positions) -> StepMetrics:
    cfg = topo.cfg
    log_term = np.log2(1.0 + REFERENCE_SINR)
    rate_norm = float(cfg.subband_bandwidth * log_term)
    eff_norm = float(cfg.num_subbands * log_term)
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
            * topo.tx_power_w[rows, None]
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
        cfg.reward_weights.w_rate * region_rate_mean / rate_norm
        + cfg.reward_weights.w_eff * region_eta / eff_norm
        + cfg.reward_weights.w_fair * region_fair
        + cfg.reward_weights.w_uav * region_uav
        + cfg.reward_weights.w_qos * region_qos / rate_norm
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
        raise SearchRefusedError("exhaustive_solve requires fading_frozen=true")
    cap = cfg.exhaustive_cap if cap is None else cap
    total = count_joint_candidates(cfg)
    if total > cap:
        raise SearchRefusedError(
            f"search space too large: {total} joint allocations exceed cap {cap}"
        )

    topo = build_topology(cfg, np.random.default_rng(cfg.seed))
    home = np.stack([nd.position for nd in topo.transmitters()])
    gains = link_gains(topo, home, rng=None)
    power = topo.tx_power_w
    noise = cfg.noise_power_w
    n, m = cfg.num_subbands, cfg.nodes_per_region
    n_regions = cfg.num_regions

    best = None
    for combo in itertools.product(range(cfg.beams + 1), repeat=n):
        combo_arr = np.asarray(combo)
        global_alloc = slots_to_region(combo_arr, cfg.beams)
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
            assoc = associate_users(topo, topo.own_region_gains(gains), regional)
            interference = co_channel_interference(topo, gains, alloc, assoc)
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
            eta = spectral_efficiency(rates, cfg.total_bandwidth)
            fair = jain_fairness(rates)
            if best is None or eta > best["eta"] or (eta == best["eta"] and fair > best["fairness"]):
                best = {
                    "eta": eta,
                    "fairness": fair,
                    "global": global_alloc.copy(),
                    "regional": regional.reshape(n_regions, m, n).copy(),
                    "local": {"beta": regional, "alpha": alpha, "dp": alloc.dp},
                }
    best["candidates"] = total
    return best


# -- greedy hdrl --------------------------------------------------------------------


def batch_of(stacked: DistParams, s: int) -> DistParams:
    """Batch ``s`` of a stacked forward's (S, B, ·) params, in the (B, ·)
    layout of a forward of that batch alone (``log_std`` is shared)."""
    return DistParams(stacked.logits[s], stacked.mean[s], stacked.log_std, stacked.value[s], stacked.schema)


def hdrl_greedy_act_loop(agent, obs: dict, t: int) -> dict:
    """``HdrlAgent.act(obs, t, explore=False)`` with one ``mode_action`` per
    HAP and per region, each on its batch of the tier's stacked forward."""
    cfg = agent.cfg
    n, m = cfg.num_subbands, cfg.nodes_per_region
    bundle: dict = {}

    if t % cfg.decision_intervals[0] == 0:
        action = mode_action(forward(agent.net_g, obs["global"][None]))
        bundle["global"] = slots_to_region(action.cat[0], cfg.beams)

    if t % cfg.decision_intervals[1] == 0:
        hap_obs = obs["regional"]
        stacked = forward(agent.net_r, hap_obs[:, None, :])
        cats = []
        for hap in range(cfg.num_haps):
            action = mode_action(batch_of(stacked, hap))
            cats.append(action.cat[0])
        # a HAP's slots are its regions' slots in region order
        bundle["regional"] = slots_to_region(np.array(cats).reshape(cfg.num_regions, n), m)

    local_obs = obs["local"]
    stacked = forward(agent.net_l, local_obs.reshape(cfg.num_regions, m, -1))
    cats, conts = [], []
    for region in range(cfg.num_regions):
        action = mode_action(batch_of(stacked, region))
        cats.append(action.cat)
        conts.append(action.cont)
    cont = np.concatenate(conts)
    bundle["local"] = {
        "beta": np.concatenate(cats).astype(np.int8),
        "alpha": cont[:, :n],
        "dp": cont[:, n:],
    }
    return bundle


# -- per-entity bookkeeping ---------------------------------------------------------
#
# Each policy slot's transitions as they were kept before the epoch-wise
# ``ppo.Trajectory``: one pending decision per entity, collecting its rewards
# until the entity's next decision (hdrl), the episode's end (hdrl) or the
# step's reward (sadrl and madrl) flushes it, with the interval's mean
# reward, into that entity's own trajectory.  At the episode's end each
# entity's trajectory runs its own GAE and the slot's buffer gets the
# entities' rows in the order they were first flushed.


class EntityTrajectory:
    """One entity's decision sequence, a decision at a time."""

    def __init__(self):
        self.obs, self.cat, self.cont = [], [], []
        self.logp, self.value, self.reward, self.done = [], [], [], []

    def add(self, obs, cat, cont, logp, value, reward, done) -> None:
        self.obs.append(np.asarray(obs, dtype=float))
        self.cat.append(np.asarray(cat, dtype=np.int64))
        self.cont.append(np.asarray(cont, dtype=float))
        self.logp.append(float(logp))
        self.value.append(float(value))
        self.reward.append(float(reward))
        self.done.append(bool(done))

    def __len__(self) -> int:
        return len(self.obs)

    def finalize(self, gamma: float, lam: float) -> dict:
        adv, ret = gae_loop(
            np.array(self.reward), np.array(self.value), np.array(self.done, dtype=float), gamma, lam
        )
        return {
            "obs": np.stack(self.obs),
            "cat": np.stack(self.cat) if self.cat else np.zeros((len(self), 0), dtype=np.int64),
            "cont": np.stack(self.cont) if self.cont else np.zeros((len(self), 0)),
            "logp": np.array(self.logp),
            "adv": adv,
            "ret": ret,
        }


def gae_loop(rewards, values, dones, gamma: float, lam: float, bootstrap_value: float = 0.0):
    """GAE over one 1-D sequence, a step at a time."""
    T = len(rewards)
    adv = np.zeros(T)
    next_adv = 0.0
    next_value = bootstrap_value
    for t in range(T - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        next_adv = delta + gamma * lam * not_done * next_adv
        adv[t] = next_adv
        next_value = values[t]
    return adv, adv + values


class Pending:
    """A decision awaiting its interval's rewards before entering a trajectory."""

    def __init__(self, obs, cat, cont, logp, value):
        self.obs = obs
        self.cat = cat
        self.cont = cont
        self.logp = logp
        self.value = value
        self.rewards: list[float] = []


class SlotBook:
    """One policy slot's per-entity pending decisions, trajectories and batch buffer."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.pending: dict = {}
        self.trajs: dict = {}
        self.buffer: list[dict] = []

    def start(self, entity, obs, cat, cont, logp, value) -> None:
        self.flush(entity, done=False)
        self.pending[entity] = Pending(obs, cat, cont, logp, value)

    def reward(self, entity, r: float) -> None:
        if entity in self.pending:
            self.pending[entity].rewards.append(float(r))

    def flush(self, entity, done: bool) -> None:
        p = self.pending.pop(entity, None)
        if p is None:
            return
        traj = self.trajs.get(entity)
        if traj is None:
            traj = self.trajs[entity] = EntityTrajectory()
        traj.add(p.obs, p.cat, p.cont, p.logp, p.value, np.mean(p.rewards), done)

    def flush_all(self, done: bool) -> None:
        for entity in list(self.pending):
            self.flush(entity, done)

    def end_episode(self, slot, ppo_cfg, rng) -> bool:
        """The old ``_PolicySlot.end_episode``, updating ``slot``'s net and Adam."""
        self.buffer.extend(
            t.finalize(ppo_cfg.discount, ppo_cfg.gae_lambda) for t in self.trajs.values() if len(t)
        )
        self.trajs.clear()
        if sum(part["obs"].shape[0] for part in self.buffer) < self.threshold:
            return False
        batch = {k: np.concatenate([part[k] for part in self.buffer], axis=0) for k in self.buffer[0]}
        ppo.ppo_update(slot.net, batch, ppo_cfg, rng, optimizer=slot.opt)
        self.buffer = []
        return True


def slot_books(agent) -> dict[str, SlotBook]:
    """A fresh book per policy slot of ``agent``, keyed by slot name."""
    return {name: SlotBook(slot.threshold) for name, slot in agent.slots.items()}


def begin_episode_loop(books: dict) -> None:
    for book in books.values():
        book.pending.clear()


def hdrl_record_loop(agent, books: dict, rewards: dict, done: bool) -> None:
    cfg = agent.cfg
    books["global"].reward(0, rewards["r_s"])
    for hap in range(cfg.num_haps):
        books["regional"].reward(hap, rewards["r_h"][hap])
    for row, r in enumerate(np.repeat(rewards["r_l"], cfg.nodes_per_region).tolist()):
        books["local"].reward(row, r)
    if done:
        for book in books.values():
            book.flush_all(done=True)


def sadrl_record_loop(agent, books: dict, rewards: dict, done: bool) -> None:
    books["policy"].reward(0, rewards["r_s"])
    books["policy"].flush(0, done=done)


def madrl_record_loop(agent, books: dict, rewards: dict, done: bool) -> None:
    for region in range(agent.cfg.num_regions):
        book = books[f"region_{region}"]
        book.reward(0, rewards["r_l"][region])
        book.flush(0, done=done)


RECORD_LOOPS = {"hdrl": hdrl_record_loop, "sadrl": sadrl_record_loop, "madrl": madrl_record_loop}


def end_episode_loop(agent, books: dict) -> None:
    """``agent.end_episode()`` from the books instead of the slots' trajectories."""
    agent.episodes_trained += 1
    for name, slot in agent.slots.items():
        agent.updates += books[name].end_episode(slot, agent.ppo, agent.rng)


# -- per-agent decisions ----------------------------------------------------------
#
# Each learned agent's ``act`` as it ran its own forward, sampling and
# ``slot.start`` calls before ``_PolicySlot.decide``: hdrl's global tier on a
# (1, D) forward and its regional and local tiers batch by batch, sadrl on a
# (1, D) forward, and madrl one (1, D) forward per region.  The decisions are
# started in the slots' per-entity ``books``, keyed as the agents key
# entities now.


def sample_action_loop(params: DistParams, rng: np.random.Generator) -> tuple[ActionBatch, np.ndarray]:
    """``sample_action`` on one (B, ·) batch, as it ran before it took stacks:
    one uniform draw for the batch's logits, then one standard-normal draw of
    the means' shape, and the Gumbel argmax, squash and log-prob on B rows."""
    schema = params.schema
    B = params.logits.shape[0]
    cat = np.zeros((B, schema.num_cat), dtype=np.int64)
    neg_gumbel = np.log(-np.log(rng.uniform(1e-12, 1.0, size=B * schema.num_logits)))
    start = 0
    for slot_start, n, arity, logit_start in schema._runs:
        size = B * n * arity
        lg = params.logits[:, logit_start : logit_start + n * arity].reshape(B, n, arity)
        noise = neg_gumbel[start : start + size].reshape(B, n, arity)
        cat[:, slot_start : slot_start + n] = (lg - noise).argmax(axis=-1)
        start += size
    if schema.num_cont:
        box = schema._box
        z = params.mean + np.exp(params.log_std) * rng.standard_normal(params.mean.shape)
        cont = box.lo + box.width * (np.tanh(z) + 1.0) / 2.0
    else:
        cont = np.zeros((B, 0))
    action = ActionBatch(cat=cat, cont=cont)
    return action, log_prob(params, action)


def _sample_tier(agent, book, stacked, entity_obs):
    """Sample a tier's stacked forward batch by batch; entity ``s * B + i``
    is row ``i`` of batch ``s``."""
    cats, conts = [], []
    for s in range(stacked.value.shape[0]):
        params = batch_of(stacked, s)
        action, logp = sample_action_loop(params, agent.rng)
        rows = len(logp)
        for i in range(rows):
            entity = s * rows + i
            book.start(
                entity, entity_obs[entity], action.cat[i], action.cont[i], logp[i], params.value[i]
            )
        cats.append(action.cat)
        conts.append(action.cont)
    return np.concatenate(cats), np.concatenate(conts)


def hdrl_act_loop(agent, books: dict, obs: dict, t: int, explore: bool) -> dict:
    cfg = agent.cfg
    n, m = cfg.num_subbands, cfg.nodes_per_region
    bundle: dict = {}
    if t % cfg.decision_intervals[0] == 0:
        params = forward(agent.net_g, obs["global"][None])
        if explore:
            action, logp = sample_action_loop(params, agent.rng)
            books["global"].start(0, obs["global"], action.cat[0], action.cont[0], logp[0], params.value[0])
        else:
            action = mode_action(params)
        bundle["global"] = slots_to_region(action.cat[0], cfg.beams)
    if t % cfg.decision_intervals[1] == 0:
        hap_obs = obs["regional"]
        stacked = forward(agent.net_r, hap_obs[:, None, :])
        if explore:
            cat, _ = _sample_tier(agent, books["regional"], stacked, hap_obs)
        else:
            cat = mode_action(stacked).cat
        bundle["regional"] = slots_to_region(cat.reshape(cfg.num_regions, n), m)
    local_obs = obs["local"]
    stacked = forward(agent.net_l, local_obs.reshape(cfg.num_regions, m, -1))
    if explore:
        cat, cont = _sample_tier(agent, books["local"], stacked, local_obs)
    else:
        action = mode_action(stacked)
        cat, cont = action.cat, action.cont
    cont = cont.reshape(cfg.num_transmitters, -1)
    bundle["local"] = {
        "beta": cat.reshape(cfg.num_transmitters, n).astype(np.int8),
        "alpha": cont[:, :n],
        "dp": cont[:, n:],
    }
    return bundle


def sadrl_act_loop(agent, books: dict, obs: dict, t: int, explore: bool) -> dict:
    cfg = agent.cfg
    n, m = cfg.num_subbands, cfg.nodes_per_region
    tcount, regions = cfg.num_transmitters, cfg.num_regions
    X = agent.flat_obs(obs)
    params = forward(agent.policy.net, X[None])
    if explore:
        action, logp = sample_action_loop(params, agent.rng)
        books["policy"].start(0, X, action.cat[0], action.cont[0], logp[0], params.value[0])
        cat, cont = action.cat[0], action.cont[0]

        def slots(lo, hi):
            return cat[lo:hi]

    else:
        # greedy: decode only the slots the env consumes at this step
        cont = mode_cont(params)[0]

        def slots(lo, hi):
            return mode_slots(params, lo)[0, : hi - lo]

    bundle: dict = {}
    if t % cfg.decision_intervals[0] == 0:
        bundle["global"] = slots_to_region(slots(0, n), cfg.beams)
    if t % cfg.decision_intervals[1] == 0:
        bundle["regional"] = slots_to_region(slots(n, n + regions * n).reshape(regions, n), m)
    beta_start = n + regions * n
    beta = slots(beta_start, beta_start + tcount * n).reshape(tcount, n)
    bundle["local"] = {
        "beta": beta,
        "alpha": cont[: tcount * n].reshape(tcount, n),
        "dp": cont[tcount * n :].reshape(tcount, 2),
    }
    return bundle


def madrl_act_loop(agent, books: dict, obs: dict, t: int, explore: bool) -> dict:
    cfg = agent.cfg
    n, m = cfg.num_subbands, cfg.nodes_per_region
    tcount = cfg.num_transmitters
    bundle: dict = {}
    if t % cfg.decision_intervals[0] == 0:
        bundle["global"] = agent.fixed_global
    cats, conts = [], []
    region_obs = agent._region_obs(obs)
    for region, slot in enumerate(agent.region_slots):
        book = books[f"region_{region}"]
        X = region_obs[region]
        params = forward(slot.net, X[None])
        if explore:
            action, logp = sample_action_loop(params, agent.rng)
            book.start(0, X, action.cat[0], action.cont[0], logp[0], params.value[0])
        else:
            action = mode_action(params)
        cats.append(action.cat[0])
        conts.append(action.cont[0])
    cat, cont = np.array(cats), np.array(conts)
    if t % cfg.decision_intervals[1] == 0:
        bundle["regional"] = slots_to_region(cat[:, :n], m)
    bundle["local"] = {
        "beta": cat[:, n:].reshape(tcount, n).astype(np.int8),
        "alpha": cont[:, : m * n].reshape(tcount, n),
        "dp": cont[:, m * n :].reshape(tcount, 2),
    }
    return bundle


ACT_LOOPS = {"hdrl": hdrl_act_loop, "sadrl": sadrl_act_loop, "madrl": madrl_act_loop}


# -- PPO update ---------------------------------------------------------------------
#
# The PPO training step as it ran on per-key dicts before the flat buffers:
# every forward and backward quantity a new array, one gradient array per
# parameter, a per-key clip and a per-key Adam.  Each minibatch unsquashes its
# own actions and builds its own one-hot (``_cont_log_prob`` is the package's
# helper of that formulation), and every minibatch computes its report,
# approximate KL and explained variance included.  ``net`` is anything with a
# ``params`` dict of separate arrays, a ``schema`` and a ``hidden``.


def _cont_log_prob(params: DistParams, cont: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-density of squashed continuous actions per row, and their pre-squash values z."""
    box = params.schema._box
    z, u = _unsquash(params.schema, cont)
    std = np.exp(params.log_std)
    gauss = -0.5 * ((z - params.mean) / std) ** 2 - params.log_std - 0.5 * _LOG_2PI
    jac = box.log_half_width + np.log1p(-u * u)
    # pinned slots are deterministic and carry no density
    return ((gauss - jac) * box.live).sum(axis=1), z


def loss_and_grads_loop(net, batch: dict, cfg) -> tuple[LossReport, dict[str, np.ndarray]]:
    p = net.params
    schema = net.schema
    X = batch["obs"]
    B = X.shape[0]
    adv = batch["adv"]
    ret = batch["ret"]
    logp_old = batch["logp"]
    cat, cont = batch["cat"], batch["cont"]

    a1 = np.tanh(X @ p["W0"] + p["b0"])
    a2 = np.tanh(a1 @ p["W1"] + p["b1"])
    logits = a2 @ p["Wl"] + p["bl"]
    mean = a2 @ p["Wm"] + p["bm"]
    log_std = _clip(p["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    value = (a2 @ p["Wv"] + p["bv"])[..., 0]
    params = DistParams(logits=logits, mean=mean, log_std=log_std, value=value, schema=schema)

    runs = []
    logp_new = np.zeros(B)
    ent = np.zeros(B)
    for slot_start, n, logit_start, logp_slot in _log_softmax_runs(params):
        acts = cat[:, slot_start : slot_start + n]
        prob, h_slot = _probs_and_entropy(logp_slot)
        logp_new += _picked(logp_slot, acts)
        ent += h_slot[..., 0].sum(axis=-1)
        runs.append((logit_start, acts, logp_slot, prob, h_slot))
    if schema.num_cont:
        lp_cont, z = _cont_log_prob(params, cont)
        logp_new += lp_cont
        ent += _cont_entropy(params)

    ratio = np.exp(logp_new - logp_old)
    unclipped = ratio * adv
    clipped = _clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    policy_loss = -(np.minimum(unclipped, clipped).sum() / B)
    value_err = value - ret
    value_loss = (value_err**2).sum() / B
    entropy_mean = ent.sum() / B
    loss = policy_loss + cfg.vf_coef * value_loss - cfg.entropy_coef * entropy_mean

    use_unclipped = unclipped <= clipped
    g_lp = np.where(use_unclipped, -adv * ratio / B, 0.0)

    d_logits = np.zeros_like(logits)
    d_mean = np.zeros_like(mean)
    d_log_std = np.zeros_like(log_std)

    for logit_start, acts, logp_slot, prob, h_slot in runs:
        _, n, arity = prob.shape
        onehot = np.zeros_like(prob)
        onehot[np.arange(B)[:, None], np.arange(n), acts] = 1.0
        d_slot = g_lp[:, None, None] * (onehot - prob)
        d_slot += (cfg.entropy_coef / B) * prob * (logp_slot + h_slot)
        d_logits[:, logit_start : logit_start + n * arity] = d_slot.reshape(B, n * arity)

    if schema.num_cont:
        std = np.exp(log_std)
        zc = (z - mean) / std
        d_mean = g_lp[:, None] * zc / std
        d_log_std = (g_lp[:, None] * (zc * zc - 1.0)).sum(axis=0)
        d_log_std += -cfg.entropy_coef
        raw = p["log_std"]
        d_log_std *= ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(float)

    d_value = cfg.vf_coef * 2.0 * value_err / B

    grads = {}
    grads["Wl"] = a2.T @ d_logits
    grads["bl"] = d_logits.sum(axis=0)
    grads["Wm"] = a2.T @ d_mean
    grads["bm"] = d_mean.sum(axis=0)
    grads["Wv"] = a2.T @ d_value[:, None]
    grads["bv"] = np.array([d_value.sum()])
    grads["log_std"] = d_log_std

    da2 = d_logits @ p["Wl"].T + d_mean @ p["Wm"].T + d_value[:, None] @ p["Wv"].T
    dz2 = da2 * (1.0 - a2 * a2)
    grads["W1"] = a1.T @ dz2
    grads["b1"] = dz2.sum(axis=0)
    da1 = dz2 @ p["W1"].T
    dz1 = da1 * (1.0 - a1 * a1)
    grads["W0"] = X.T @ dz1
    grads["b0"] = dz1.sum(axis=0)

    report = LossReport(
        loss=float(loss),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        entropy=float(entropy_mean),
        clip_fraction=float((~use_unclipped).mean()),
        approx_kl=float(((ratio - 1.0) - (logp_new - logp_old)).mean()),
        explained_variance=(
            float("nan") if ret.var() == 0.0 else float(1.0 - (ret - value).var() / ret.var())
        ),
    )
    return report, grads


def clip_grad_norm_loop(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class AdamLoop:
    """Adam with one moment array per parameter key."""

    def __init__(self, params: dict[str, np.ndarray], lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * (g * g)
            step = self.lr * (self.m[k] / b1t) / (np.sqrt(self.v[k] / b2t) + self.eps)
            params[k] -= step


def ppo_update_loop(
    net, batch: dict, cfg, rng: np.random.Generator, optimizer: AdamLoop
) -> UpdateReport:
    B = batch["obs"].shape[0]
    adv = batch["adv"]
    batch = dict(batch)
    batch["adv"] = (adv - adv.mean()) / (adv.std() + 1e-8)
    mb = min(cfg.minibatch_size, B)
    last = None
    steps = 0
    for _ in range(cfg.sgd_iters):
        perm = rng.permutation(B)
        for start in range(0, B, mb):
            idx = perm[start : start + mb]
            minibatch = {k: v[idx] for k, v in batch.items()}
            report, grads = loss_and_grads_loop(net, minibatch, cfg)
            norm = clip_grad_norm_loop(grads, MAX_GRAD_NORM)
            optimizer.step(net.params, grads)
            last = report
            steps += 1
    return UpdateReport(
        policy_loss=last.policy_loss,
        value_loss=last.value_loss,
        entropy=last.entropy,
        clip_fraction=last.clip_fraction,
        approx_kl=last.approx_kl,
        explained_variance=last.explained_variance,
        grad_norm=norm,
        grad_steps=steps,
    )
