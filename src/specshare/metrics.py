"""Link/network performance metrics and the multi-objective reward stack.

Rates follow the Shannon form per subband, spectral efficiency is total
rate over total bandwidth, fairness is Jain's index, QoS violation is the
shortfall of the worst user against the minimum rate, and the UAV penalty
is the fraction of UAVs that left their home region.  Rewards compose the
per-region metrics bottom-up: regions feed HAP means, HAP means feed the
satellite-level scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import AllocationState
from .channel import ChannelSnapshot
from .config import RewardWeights, ScenarioConfig
from .topology import Topology

# Reference SINR anchoring the reward normalizers: a link at this SINR
# counts as "full rate" for normalization purposes.
REFERENCE_SINR = 100.0

def _scalar_or_array(x):
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def sinr(gain, alpha, power_w, interference_w, noise_w):
    """SINR = gain * alpha * P / (I + N0); all linear units, broadcast together."""
    return np.asarray(gain) * alpha * power_w / (np.asarray(interference_w) + noise_w)


# The rate and region helpers below reduce over the last axis: user_rate
# takes a user's (N,) subband SINRs or a (U, N) stack of users, and the
# region helpers a (K,) rate vector or an (R, K) stack of regions.  One
# user or one region gives a float.


def user_rate(sinr_values, total_bandwidth: float, num_subbands: int):
    """Shannon rate in bps summed over a user's subbands."""
    per = total_bandwidth / num_subbands
    shannon = np.log2(1.0 + np.atleast_1d(np.asarray(sinr_values, dtype=float)))
    return _scalar_or_array(per * shannon.sum(axis=-1))


def spectral_efficiency(rates, total_bandwidth: float):
    """Sum rate normalized by the shared bandwidth, bps/Hz."""
    return _scalar_or_array(np.add.reduce(rates, axis=-1) / total_bandwidth)


def _jain_from_sums(total, sum_sq, k: int) -> np.ndarray:
    """Jain's index from a rate vector's sum and sum of squares; 1 where the sum is 0."""
    total = np.asarray(total)
    return np.divide(total * total, k * sum_sq, out=np.ones_like(total), where=total != 0.0)


def jain_fairness(rates):
    """Jain's index in [1/K, 1]; defined as 1 for an all-zero rate vector."""
    r = np.asarray(rates, dtype=float)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("jain_fairness needs at least one rate")
    return _scalar_or_array(_jain_from_sums(r.sum(axis=-1), (r * r).sum(axis=-1), r.shape[-1]))


def qos_violation(rates, r_min: float):
    """Worst-user shortfall against the minimum rate, in bps."""
    r = np.asarray(rates, dtype=float)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("qos_violation needs at least one rate")
    # ties return the second operand, the +0.0 floor, as max(0.0, x) does
    return _scalar_or_array(np.maximum(r_min - np.minimum.reduce(r, axis=-1), 0.0))


def uav_penalty(positions: np.ndarray, bounds):
    """Fraction of UAVs strictly outside the region rectangle (boundary is inside).

    One region: ``positions`` (n, 2+) with ``bounds`` (4,) = xmin, ymin,
    xmax, ymax.  A stack of regions: (R, n, 2+) with (R, 4).  No UAVs
    scores 0.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[None]
    n = pos.shape[-2]
    if n == 0:
        return _scalar_or_array(np.zeros(pos.shape[:-2]))
    b = np.asarray(bounds, dtype=float)[..., None, :]
    xy = pos[..., :2]
    outside = ((xy < b[..., :2]) | (xy > b[..., 2:])).any(axis=-1)
    return _scalar_or_array(outside.sum(axis=-1) / n)


@dataclass(frozen=True)
class RewardNorms:
    """Scale constants keeping reward terms O(1).

    rate_norm is the one-subband rate at the reference SINR; eff_norm is
    the spectral efficiency of all subbands running at it.
    """

    rate_norm: float
    eff_norm: float

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "RewardNorms":
        log_term = np.log2(1.0 + REFERENCE_SINR)
        return cls(
            rate_norm=float(cfg.subband_bandwidth * log_term),
            eff_norm=float(cfg.num_subbands * log_term),
        )


def compose_rewards(
    region_rate_mean: np.ndarray,
    region_eta: np.ndarray,
    region_fairness: np.ndarray,
    region_uav: np.ndarray,
    region_qos: np.ndarray,
    weights: RewardWeights,
    norms: RewardNorms,
    regions_per_hap: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Region rewards, then HAP means, then the satellite-level mean."""
    r_l = (
        weights.w_rate * region_rate_mean / norms.rate_norm
        + weights.w_eff * region_eta / norms.eff_norm
        + weights.w_fair * region_fairness
        + weights.w_uav * region_uav
        + weights.w_qos * region_qos / norms.rate_norm
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
        return {
            "user_rates": self.user_rates.tolist(),
            "region_eta": self.region_eta.tolist(),
            "region_fairness": self.region_fairness.tolist(),
            "region_qos": self.region_qos.tolist(),
            "region_uav_penalty": self.region_uav_penalty.tolist(),
            "region_rate_mean": self.region_rate_mean.tolist(),
            "r_avg": self.r_avg,
            "eta": self.eta,
            "fairness": self.fairness,
            "r_l": self.r_l.tolist(),
            "r_h": self.r_h.tolist(),
            "r_s": self.r_s,
            "spectrum_utilization": self.spectrum_utilization,
        }


def served_user_rates(
    cfg: ScenarioConfig, alloc: AllocationState, snap: ChannelSnapshot
) -> tuple[np.ndarray, np.ndarray]:
    """SINR (..., U, N) of each user on each subband from its serving node,
    zero where unserved, and the users' Shannon rates (..., U).

    Reads only ``alloc``'s regional, beta and alpha.  As in
    ``co_channel_interference``, leading candidate axes on those, the
    association and the interference carry through.
    """
    # served[-1] holds the served users, served[:-1] their candidates
    served = np.nonzero(snap.association >= 0)
    rows = snap.association[served]
    at = served[:-1] + (rows,)
    active = alloc.regional[at] * alloc.beta[at]  # 0/1, exact as a float factor
    sinr_matrix = np.zeros(snap.interference.shape)
    sinr_matrix[served] = sinr(
        snap.gains[rows, served[-1]][:, None],
        alloc.alpha[at] * active,
        snap.tx_power_w[rows, None],
        snap.interference[served],
        cfg.noise_power_w,
    )
    return sinr_matrix, user_rate(sinr_matrix, cfg.total_bandwidth, cfg.num_subbands)


def compute_step_metrics(
    topo: Topology,
    alloc: AllocationState,
    snap: ChannelSnapshot,
    tx_positions: np.ndarray,
    norms: RewardNorms,
) -> StepMetrics:
    cfg = topo.cfg
    n_users = cfg.num_users
    sinr_matrix, user_rates = served_user_rates(cfg, alloc, snap)

    n_regions, k = cfg.num_regions, cfg.users_per_region
    rates = user_rates.reshape(n_regions, k)
    region_total = rates.sum(axis=1)
    region_eta = spectral_efficiency(rates, cfg.total_bandwidth)
    region_fair = _jain_from_sums(region_total, (rates * rates).sum(axis=1), k)
    region_qos = qos_violation(rates, cfg.r_min)
    region_rate_mean = region_total / k
    # UAV rows come region by region, the same number in each region
    region_uav = uav_penalty(
        tx_positions[topo.uav_rows].reshape(n_regions, cfg.uavs_per_region, -1),
        topo.region_bounds,
    )

    r_l, r_h, r_s = compose_rewards(
        region_rate_mean,
        region_eta,
        region_fair,
        region_uav,
        region_qos,
        cfg.reward_weights,
        norms,
        cfg.regions_per_hap,
    )

    total = user_rates.sum()
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
        r_avg=float(total / n_users),
        eta=spectral_efficiency(user_rates, cfg.total_bandwidth),
        fairness=float(_jain_from_sums(total, (user_rates * user_rates).sum(), n_users)),
        r_l=r_l,
        r_h=r_h,
        r_s=r_s,
        spectrum_utilization=utilization,
    )
