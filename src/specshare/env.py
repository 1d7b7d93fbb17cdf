"""Multi-timescale spectrum sharing environment.

One step equals one local decision interval.  Global (satellite) actions
are accepted only every ``ds`` steps and regional (HAP) actions every
``dh`` steps; between decision points the last allocation holds.  Local
actions arrive every step.  A step reads the next allocation top-down into
a new state: the global grant masks regional matrices, regional grants
mask local access, and local actions are clamped onto the feasible set
rather than rejected.  ``validate`` checks that state before it replaces
the held one, and before any physics runs.  UAVs move by their (clamped)
``dp`` each step and are penalized, not blocked, for leaving their region;
only a hard wall at three region sizes clips them.

Episodes never terminate early; they truncate after ``steps_per_episode``
steps.  Supplying a tier's action off schedule, or omitting it when due,
raises ScheduleError.  A refused step, whatever the reason, leaves the env
as it was.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import AllocationState, clamp_local, validate
from .channel import ChannelSnapshot, compute_snapshot, db_to_unit, gain_to_unit
from .config import ScenarioConfig
from .metrics import StepMetrics, compute_step_metrics
from .topology import Topology, build_topology

# dBm range used to squash interference into [0, 1] observation features;
# zero interference maps to the floor.
INTERFERENCE_DBM_RANGE = (-150.0, -40.0)


class ScheduleError(ValueError):
    """An action arrived off its tier's decision schedule, or was missing."""


def interference_to_unit(interference_w) -> np.ndarray:
    """Map interference in watts onto [0, 1] via the fixed dBm range.

    The floor is the smallest positive double, so zero interference lands
    far below the range and clips to 0.
    """
    lo, hi = INTERFERENCE_DBM_RANGE
    return db_to_unit(interference_w, float(np.nextafter(0.0, 1.0)), 30.0, lo, hi - lo)


def _first_claimant(mat: np.ndarray, axis: int) -> np.ndarray:
    """Keep only the first 1 along ``axis`` in each line of a 0/1 int8 array."""
    return mat & (np.cumsum(mat, axis=axis) == 1)


@dataclass
class EnvState:
    t: int
    alloc: AllocationState
    tx_positions: np.ndarray  # (num_transmitters, 3), current
    snapshot: ChannelSnapshot
    metrics: StepMetrics | None


def episode_summary(step_metrics: list[StepMetrics]) -> dict:
    """Aggregate one episode: cumulative top-level reward plus time means."""
    if not step_metrics:
        raise ValueError("episode_summary needs at least one step")
    return {
        "cumulative_reward": float(sum(m.r_s for m in step_metrics)),
        "r_avg": float(np.mean([m.r_avg for m in step_metrics])),
        "eta": float(np.mean([m.eta for m in step_metrics])),
        "fairness": float(np.mean([m.fairness for m in step_metrics])),
    }


class SpectrumSharingEnv:
    """Environment over a fixed scene; the scene itself derives from cfg.seed."""

    def __init__(self, cfg: ScenarioConfig, trace_path: str | Path | None = None):
        cfg.validate()
        self.cfg = cfg
        self.topology: Topology = build_topology(cfg, np.random.default_rng(cfg.seed))
        topo = self.topology
        self._home = np.stack([n.position for n in topo.transmitters()])
        self._uav_rows = topo.uav_rows
        self._row_region = topo.row_region
        # hard wall: region rectangle inflated to 3x its size, same center
        w, h = cfg.region_size
        b = topo.region_bounds
        wall = np.stack([b[:, 0] - w, b[:, 1] - h, b[:, 2] + w, b[:, 3] + h], axis=1)
        uav_wall = wall[self._row_region[self._uav_rows]]
        self._uav_wall_lo, self._uav_wall_hi = uav_wall[:, :2], uav_wall[:, 2:]
        # static observation pieces; every beam covers the same number of
        # regions, so every beam has the same user share
        regions_per_beam = cfg.haps_per_beam * cfg.regions_per_hap
        self._beam_user_share = np.full(
            cfg.beams, regions_per_beam * cfg.users_per_region / cfg.num_users
        )
        self._hap_beam = np.arange(cfg.num_haps) // cfg.haps_per_beam
        # per-row region rectangle origin and extent, for the own-position feature
        row_bounds = b[self._row_region]
        self._row_origin = row_bounds[:, :2]
        self._row_extent = row_bounds[:, 2:] - row_bounds[:, :2]
        # local observation rows start from a template holding the static part:
        # the region's users in unit coordinates
        n, k = cfg.num_subbands, cfg.users_per_region
        users = topo.user_positions.reshape(cfg.num_regions, k, 3)
        origin = b[:, None, :2]
        extent = (b[:, 2:] - b[:, :2])[:, None, :]
        user_xy = ((users[:, :, :2] - origin) / extent).reshape(cfg.num_regions, -1)
        self._local_template = np.zeros((cfg.num_transmitters, 2 * n + 3 * k + 2))
        self._local_template[:, n : n + 2 * k] = user_xy[self._row_region]

        self.state: EnvState | None = None
        self._auto_seed = cfg.seed
        self._trace_path = Path(trace_path) if trace_path else None
        self._trace_fh = None

    # -- lifecycle ----------------------------------------------------------

    def reset(self, seed: int | None = None) -> dict:
        """Start an episode; channel randomness derives from the given seed."""
        cfg = self.cfg
        if seed is None:
            seed = self._auto_seed
            self._auto_seed += 1
        self._chan_rng = np.random.default_rng((cfg.seed, 0x5EED, seed))
        alloc = AllocationState.zeros(cfg)
        tx_positions = self._home.copy()
        snapshot = compute_snapshot(self.topology, alloc, tx_positions, rng=self._chan_rng)
        self.state = EnvState(
            t=0, alloc=alloc, tx_positions=tx_positions, snapshot=snapshot, metrics=None
        )
        if self._trace_path:
            if self._trace_fh is None:
                self._trace_fh = open(self._trace_path, "w")
            self._trace_fh.write(
                json.dumps({"type": "header", "config": cfg.to_dict(), "seed": seed}) + "\n"
            )
        return self._observe_all()

    def close(self) -> None:
        if self._trace_fh is not None:
            self._trace_fh.close()
            self._trace_fh = None

    # -- stepping -------------------------------------------------------------

    def step(self, actions: dict):
        """Apply one action bundle; returns (obs, rewards, terminated, truncated, metrics).

        ``actions`` holds "global" (beams x N binary matrix, only at global
        decision steps), "regional" ((num_regions, nodes, N) binary array,
        region r's node-by-subband matrix at index r, only at regional
        decision steps), and "local" ({"beta": (T, N), "alpha": (T, N),
        "dp": (T, 2)}) every step.  An array of the wrong shape, or a
        non-finite ``alpha`` or ``dp``, raises ValueError.  The tiers are
        checked against the schedule first, then read into a new allocation
        (a tier not due keeps the held matrix), which replaces the held one
        only once ``validate`` accepts it: a step that raises changes nothing.
        """
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        cfg = self.cfg
        state = self.state
        t = state.t
        if t >= cfg.steps_per_episode:
            raise RuntimeError("episode already truncated; call reset()")

        global_due, regional_due = cfg.global_due(t), cfg.regional_due(t)
        for tier, due in (("global", global_due), ("regional", regional_due), ("local", True)):
            if due != (actions.get(tier) is not None):
                problem = "missing required" if due else "off-schedule"
                raise ScheduleError(f"{problem} action: {tier} at t={t}")
        # every global epoch is a regional epoch, so a held regional matrix
        # already sits inside the held grant
        held = state.alloc
        grant = self._read_global(actions["global"]) if global_due else held.global_alloc
        regional = self._read_regional(actions["regional"], grant) if regional_due else held.regional
        alloc = AllocationState(grant, regional, *self._read_local(actions["local"], regional))
        violation = validate(alloc, cfg)
        if violation is not None:
            raise RuntimeError(f"internal allocation violation in step: {violation}")
        state.alloc = alloc

        self._move_uavs()

        state.snapshot = compute_snapshot(self.topology, alloc, state.tx_positions, rng=self._chan_rng)
        state.metrics = compute_step_metrics(self.topology, alloc, state.snapshot, state.tx_positions)

        if self._trace_fh is not None:
            decisions = {
                "global": global_due,
                "regional": list(range(cfg.num_haps)) if regional_due else [],
                "local": cfg.num_transmitters,
            }
            self._write_trace(t, decisions, state)

        state.t = t + 1
        truncated = state.t >= cfg.steps_per_episode
        rewards = {
            "r_s": state.metrics.r_s,
            "r_h": state.metrics.r_h.copy(),
            "r_l": state.metrics.r_l.copy(),
        }
        return self._observe_all(), rewards, False, truncated, state.metrics

    def _read_global(self, matrix) -> np.ndarray:
        """The (beams, N) grant: binarized, the lowest-index beam per subband."""
        cfg = self.cfg
        g = (np.asarray(matrix) > 0.5).astype(np.int8)
        if g.shape != (cfg.beams, cfg.num_subbands):
            raise ValueError(f"global action must be {(cfg.beams, cfg.num_subbands)}, got {g.shape}")
        return _first_claimant(g, axis=0)

    def _read_regional(self, regional, grant: np.ndarray) -> np.ndarray:
        """The (T, N) regional matrix: binarized, one node per subband inside
        each region (the lowest-index claimant), and only on ``grant``."""
        cfg = self.cfg
        n = cfg.num_subbands
        regional = np.asarray(regional)
        shape = (cfg.num_regions, cfg.nodes_per_region, n)
        if regional.shape != shape:
            raise ValueError(f"regional action must be {shape}, got {regional.shape}")
        cleaned = _first_claimant((regional > 0.5).astype(np.int8), axis=1)
        cleaned &= grant[self.topology.region_beam][:, None, :]
        return cleaned.reshape(cfg.num_transmitters, n)

    def _read_local(self, local: dict, granted: np.ndarray) -> tuple:
        """(beta, alpha, dp) clamped onto ``granted``; a wrong shape or a
        non-finite ``alpha`` or ``dp`` raises ValueError."""
        cfg = self.cfg
        beta = np.asarray(local["beta"])
        alpha = np.asarray(local["alpha"], dtype=float)
        dp = np.asarray(local["dp"], dtype=float)
        shape = (cfg.num_transmitters, cfg.num_subbands)
        if beta.shape != shape or alpha.shape != shape or dp.shape != (cfg.num_transmitters, 2):
            raise ValueError("local action arrays have wrong shape")
        # the clamp carries a NaN through: refuse it by name
        for name, arr in (("alpha", alpha), ("dp", dp)):
            if not np.isfinite(arr).all():
                raise ValueError(f"local action {name!r} holds a non-finite value")
        return clamp_local(beta, alpha, dp, granted, cfg.uav_step, self.topology.is_uav)

    def _move_uavs(self) -> None:
        state = self.state
        rows = self._uav_rows
        moved = state.tx_positions[rows, :2] + state.alloc.dp[rows]
        # np.clip with the same bits, minus the wrapper overhead
        state.tx_positions[rows, :2] = np.minimum(
            self._uav_wall_hi, np.maximum(self._uav_wall_lo, moved)
        )

    # -- observations ----------------------------------------------------------

    def _channel_features(self) -> tuple:
        """Observation features that depend only on the channel snapshot.

        Returns unit gains of each row to its own region's users (T, k), of
        each row's mean over them (T,), and of each beam's mean over its rows
        (B,), plus each region's mean interference per subband in unit form
        (R, N).
        """
        cfg = self.cfg
        snap = self.state.snapshot
        t, k = cfg.num_transmitters, cfg.users_per_region
        blocks = self.topology.own_region_gains(snap.gains)  # (R, m, k)
        row_means = blocks.sum(axis=2).reshape(-1) / k
        # each beam's regions, and so its rows, are contiguous
        per_beam = row_means.reshape(cfg.beams, -1)
        beam_means = per_beam.sum(axis=1) / per_beam.shape[1]
        interf = snap.interference.reshape(cfg.num_regions, k, cfg.num_subbands).sum(axis=1) / k
        # the three gain sets share one mapping pass
        unit = gain_to_unit(np.concatenate([blocks.reshape(-1), row_means, beam_means]))
        return (
            unit[: t * k].reshape(t, k),
            unit[t * k : t * k + t],
            unit[t * k + t :],
            interference_to_unit(interf),
        )

    def _observe_global(self, beam_gain: np.ndarray) -> np.ndarray:
        avail = 1.0 - self.state.alloc.global_alloc.any(axis=0)
        return np.concatenate([avail, self._beam_user_share, beam_gain])

    def _observe_regional(self, node_gain: np.ndarray) -> np.ndarray:
        """(num_haps, D) regional observations: beam grant, node load, node gain."""
        cfg = self.cfg
        state = self.state
        n = cfg.num_subbands
        per_hap = cfg.regions_per_hap * cfg.nodes_per_region
        out = np.empty((cfg.num_haps, n + 2 * per_hap))
        out[:, :n] = state.alloc.global_alloc[self._hap_beam]
        assoc = state.snapshot.association
        counts = np.bincount(assoc[assoc >= 0], minlength=cfg.num_transmitters)
        hap_users = cfg.regions_per_hap * cfg.users_per_region
        out[:, n : n + per_hap] = (counts / hap_users).reshape(cfg.num_haps, per_hap)
        out[:, n + per_hap :] = node_gain.reshape(cfg.num_haps, per_hap)
        return out

    def _observe_local(self, row_gain: np.ndarray, interf: np.ndarray) -> np.ndarray:
        """(num_transmitters, D) local observations: grant, the region's users,
        own position, gains to the region's users, mean interference over them."""
        cfg = self.cfg
        state = self.state
        n, k = cfg.num_subbands, cfg.users_per_region
        out = self._local_template.copy()  # user positions are static
        out[:, :n] = state.alloc.regional
        own = (state.tx_positions[:, :2] - self._row_origin) / self._row_extent
        out[:, n + 2 * k : n + 2 * k + 2] = np.minimum(1.0, np.maximum(0.0, own))
        out[:, n + 2 * k + 2 : n + 3 * k + 2] = row_gain
        out[:, n + 3 * k + 2 :] = interf[self._row_region]
        return out

    def _observe_all(self) -> dict:
        """The global vector, and the (num_haps, D) regional and
        (num_transmitters, D) local arrays: row i is entity i's vector.  The
        channel features are computed once, for all three."""
        row_gain, node_gain, beam_gain, interf = self._channel_features()
        return {
            "global": self._observe_global(beam_gain),
            "regional": self._observe_regional(node_gain),
            "local": self._observe_local(row_gain, interf),
        }

    # -- tracing ----------------------------------------------------------------

    def _write_trace(self, t: int, decisions: dict, state: EnvState) -> None:
        line = {
            "type": "step",
            "t": t,
            "decisions": decisions,
            "allocation": state.alloc.to_dict(),
            "tx_positions": state.tx_positions.tolist(),
            "gains": state.snapshot.gains.tolist(),
            "metrics": state.metrics.to_dict(),
        }
        self._trace_fh.write(json.dumps(line) + "\n")
