"""Link/network performance metrics and the multi-objective reward stack.

Rates follow the Shannon form per subband, spectral efficiency is total
rate over total bandwidth, fairness is Jain's index, QoS violation is the
shortfall of the worst user against the minimum rate, and the UAV penalty
is the fraction of UAVs that left their home region.  Each of these
helpers takes a stack (the step's users or regions, or the exhaustive
search's candidates) and returns one value per row; the step's
network-wide figures are floats.  Rewards compose the per-region metrics
bottom-up: regions feed HAP means, HAP means feed the satellite-level
scalar.

The step's metrics read the scenario only from the ``Topology`` (``topo.cfg``
and ``topo.tx_power_w``); the reward scales, like the noise power, are
computed from the config where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .allocation import AllocationState
from .channel import ChannelSnapshot
from .config import ScenarioConfig
from .topology import Topology

# Reference SINR anchoring the reward scales: a link at this SINR counts as
# "full rate" for normalization purposes.
REFERENCE_SINR = 100.0


def sinr(gain, alpha, power_w, interference_w, noise_w):
    """SINR = gain * alpha * P / (I + N0); all linear units, broadcast together."""
    return gain * alpha * power_w / (interference_w + noise_w)


# The rate and region helpers below take stacks and reduce over the last
# axis: user_rate a (..., U, N) stack of users' subband SINRs, the region
# helpers an (R, K) stack of regions' user rates (or the exhaustive search's
# (C, U) stack of candidates' rates).


def user_rate(sinr_values: np.ndarray, total_bandwidth: float, num_subbands: int) -> np.ndarray:
    """Shannon rate in bps of each user, summed over its subbands."""
    per = total_bandwidth / num_subbands
    return per * np.log2(1.0 + sinr_values).sum(axis=-1)


def spectral_efficiency(rates: np.ndarray, total_bandwidth: float) -> np.ndarray:
    """Sum rate normalized by the shared bandwidth, bps/Hz."""
    return np.add.reduce(rates, axis=-1) / total_bandwidth


def _jain_from_sums(total, sum_sq, k: int) -> np.ndarray:
    """Jain's index from a rate vector's sum and sum of squares; 1 where the sum is 0."""
    return np.divide(total * total, k * sum_sq, out=np.ones_like(total), where=total != 0.0)


def jain_fairness(rates: np.ndarray) -> np.ndarray:
    """Jain's index in [1/K, 1]; defined as 1 for an all-zero rate vector."""
    return _jain_from_sums(rates.sum(axis=-1), (rates * rates).sum(axis=-1), rates.shape[-1])


def qos_violation(rates: np.ndarray, r_min: float) -> np.ndarray:
    """Worst-user shortfall against the minimum rate, in bps."""
    # ties return the second operand, the +0.0 floor, as max(0.0, x) does
    return np.maximum(r_min - np.minimum.reduce(rates, axis=-1), 0.0)


def uav_penalty(positions: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Fraction of each region's UAVs strictly outside its rectangle (the
    boundary is inside): ``positions`` (R, n, 2+), ``bounds`` (R, 4) =
    xmin, ymin, xmax, ymax."""
    b = bounds[:, None, :]
    xy = positions[..., :2]
    outside = ((xy < b[..., :2]) | (xy > b[..., 2:])).any(axis=-1)
    return outside.sum(axis=-1) / positions.shape[1]


def compose_rewards(
    cfg: ScenarioConfig,
    region_rate_mean: np.ndarray,
    region_eta: np.ndarray,
    region_fairness: np.ndarray,
    region_uav: np.ndarray,
    region_qos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Region rewards, then HAP means, then the satellite-level mean.  Rates
    are scaled by the one-subband rate at ``REFERENCE_SINR``, efficiency by
    that of all subbands at it, keeping each term O(1)."""
    weights, regions_per_hap = cfg.reward_weights, cfg.regions_per_hap
    log_term = np.log2(1.0 + REFERENCE_SINR)
    rate_norm = float(cfg.subband_bandwidth * log_term)
    eff_norm = float(cfg.num_subbands * log_term)
    r_l = (
        weights.w_rate * region_rate_mean / rate_norm
        + weights.w_eff * region_eta / eff_norm
        + weights.w_fair * region_fairness
        + weights.w_uav * region_uav
        + weights.w_qos * region_qos / rate_norm
    )
    # sum / count is ndarray.mean bit for bit, without the wrapper overhead
    r_h = r_l.reshape(-1, regions_per_hap).sum(axis=1) / regions_per_hap
    r_s = float(r_h.sum() / r_h.size)
    return r_l, r_h, r_s


@dataclass
class StepMetrics:
    """Everything measured in one environment step."""

    sinr: np.ndarray  # (num_users, N), zero where not served
    user_rates: np.ndarray  # (num_users,) bps
    region_eta: np.ndarray  # (num_regions,) bps/Hz
    region_fairness: np.ndarray
    region_qos: np.ndarray  # bps shortfall
    region_uav_penalty: np.ndarray
    region_rate_mean: np.ndarray  # (num_regions,) bps
    r_avg: float  # network mean user rate, bps
    eta: float  # network sum rate over bandwidth, bps/Hz
    fairness: float  # Jain over all users
    r_l: np.ndarray  # (num_regions,)
    r_h: np.ndarray  # (num_haps,)
    r_s: float
    spectrum_utilization: float  # active / granted subband-node pairs

    def to_dict(self) -> dict:
        """Every field but ``sinr``, in field order, arrays as lists: what
        a trace step records and ``replay`` recomputes."""
        data = {}
        for f in fields(self):
            if f.name != "sinr":
                value = getattr(self, f.name)
                data[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return data


def served_user_rates(
    topo: Topology, alloc: AllocationState, snap: ChannelSnapshot
) -> tuple[np.ndarray, np.ndarray]:
    """SINR (..., U, N) of each user on each subband from its serving node,
    zero where unserved, and the users' Shannon rates (..., U).

    Reads only ``alloc``'s beta and alpha, as ``co_channel_interference``
    does; leading candidate axes on those, the association and the
    interference carry through.
    """
    cfg = topo.cfg
    # served[-1] holds the served users, served[:-1] their candidates
    served = np.nonzero(snap.association >= 0)
    rows = snap.association[served]
    at = served[:-1] + (rows,)
    sinr_matrix = np.zeros(snap.interference.shape)
    sinr_matrix[served] = sinr(
        snap.gains[rows, served[-1]][:, None],
        alloc.alpha[at] * alloc.beta[at],  # beta is 0/1, exact as a float factor
        topo.tx_power_w[rows, None],
        snap.interference[served],
        cfg.noise_power_w,
    )
    return sinr_matrix, user_rate(sinr_matrix, cfg.total_bandwidth, cfg.num_subbands)


def compute_step_metrics(
    topo: Topology,
    alloc: AllocationState,
    snap: ChannelSnapshot,
    tx_positions: np.ndarray,
) -> StepMetrics:
    cfg = topo.cfg
    n_users = cfg.num_users
    sinr_matrix, user_rates = served_user_rates(topo, alloc, snap)

    n_regions, k = cfg.num_regions, cfg.users_per_region
    rates = user_rates.reshape(n_regions, k)
    region_total = rates.sum(axis=1)
    region_eta = region_total / cfg.total_bandwidth
    region_fair = _jain_from_sums(region_total, (rates * rates).sum(axis=1), k)
    region_qos = qos_violation(rates, cfg.r_min)
    region_rate_mean = region_total / k
    # UAV rows come region by region, the same number in each region
    region_uav = uav_penalty(
        tx_positions[topo.uav_rows].reshape(n_regions, cfg.uavs_per_region, -1),
        topo.region_bounds,
    )

    r_l, r_h, r_s = compose_rewards(
        cfg, region_rate_mean, region_eta, region_fair, region_uav, region_qos
    )

    total = user_rates.sum()
    granted = int(alloc.regional.sum())
    utilization = int(alloc.beta.sum()) / granted if granted else 0.0

    return StepMetrics(
        sinr=sinr_matrix,
        user_rates=user_rates,
        region_eta=region_eta,
        region_fairness=region_fair,
        region_qos=region_qos,
        region_uav_penalty=region_uav,
        region_rate_mean=region_rate_mean,
        r_avg=float(total / n_users),
        eta=float(total / cfg.total_bandwidth),
        fairness=float(_jain_from_sums(total, (user_rates * user_rates).sum(), n_users)),
        r_l=r_l,
        r_h=r_h,
        r_s=r_s,
        spectrum_utilization=utilization,
    )
