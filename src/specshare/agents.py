"""Allocation agents: random, exhaustive search, flat PPO, per-region PPO,
and the hierarchical three-tier PPO, plus the shared train/evaluate loops.

Action factorization (shared by all learned agents):

* global: one categorical slot per subband with arity beams+1 (0 = leave
  idle, k = grant to beam k-1);
* regional: one slot per (region, subband) with arity nodes_per_region+1
  (0 = unused, k = node k-1 of that region);
* local, per node: one binary slot per subband (access mask), one
  box-bounded continuous slot per subband (power fraction), and a 2D
  movement slot bounded by the per-step UAV displacement limit.

The hierarchical agent evaluates its shared local policy over all regions
(each region's nodes as one batch) every step and its shared regional
policy over all HAPs at that tier's decision steps, one stacked forward per
tier, then samples entity by entity; the per-region baseline runs one
separate PPO per region every step; the flat baseline runs one network over
the concatenated observation every step.
"""

from __future__ import annotations

import time

import numpy as np

from . import ppo
from .allocation import AllocationState, EnumerationCapError
from .channel import ChannelSnapshot, associate_users, co_channel_interference, link_gains
from .config import PpoConfig, ScenarioConfig
from .env import SpectrumSharingEnv, episode_summary
from .metrics import jain_fairness, served_user_rates, spectral_efficiency
from .ppo import (
    ActionSchema,
    Adam,
    PolicyNet,
    Trajectory,
    forward,
    load_checkpoint,
    mode_action,
    mode_cont,
    mode_slots,
    sample_action,
    save_checkpoint,
)
from .topology import build_topology

AGENT_KINDS = ("random", "exhaustive", "sadrl", "madrl", "hdrl")


# -- observation/action sizing and codecs -------------------------------------


def obs_dims(cfg: ScenarioConfig) -> dict:
    n, k = cfg.num_subbands, cfg.users_per_region
    m = cfg.nodes_per_region
    r = cfg.regions_per_hap
    return {
        "global": n + 2 * cfg.beams,
        "regional": n + 2 * r * m,
        "local": n + 2 * k + 2 + k + n,
    }


def slots_to_region(slots: np.ndarray, nodes: int) -> np.ndarray:
    """Per-subband node choices (0 = unused) to a region's binary matrix.

    (N,) choices give a (nodes, N) matrix; leading axes carry through, so
    (R, N) choices give R matrices at once.
    """
    slots = np.asarray(slots, dtype=int)
    return (slots[..., None, :] == np.arange(1, nodes + 1)[:, None]).astype(np.int8)


def slots_to_global(slots: np.ndarray, beams: int) -> np.ndarray:
    """Per-subband beam choices (0 = idle) to a binary grant matrix."""
    return slots_to_region(slots, beams)


def _local_schema(cfg: ScenarioConfig) -> ActionSchema:
    n = cfg.num_subbands
    s = cfg.uav_step
    return ActionSchema(
        cat_arities=(2,) * n,
        cont_bounds=((0.0, 1.0),) * n + ((-s, s), (-s, s)),
    )


# -- policy slots ----------------------------------------------------------------


class _Pending:
    """A decision awaiting its interval's rewards before entering a trajectory."""

    __slots__ = ("obs", "cat", "cont", "logp", "value", "rewards")

    def __init__(self, obs, cat, cont, logp, value):
        self.obs = obs
        self.cat = cat
        self.cont = cont
        self.logp = logp
        self.value = value
        self.rewards: list[float] = []


class _PolicySlot:
    """One PPO policy and its bookkeeping.

    Owns the net and its Adam state, each entity's pending decision and
    episode trajectory, and the batch buffer, which feeds one PPO update
    once it holds ``threshold`` transitions.
    """

    def __init__(self, net: PolicyNet, ppo_cfg: PpoConfig, threshold: int):
        self.net = net
        self.opt = Adam(net.params, ppo_cfg.learning_rate)
        self.threshold = threshold
        self.pending: dict = {}
        self.trajs: dict = {}
        self.buffer: list[dict] = []

    def start(self, entity, obs, cat, cont, logp, value) -> None:
        self.flush(entity, done=False)
        self.pending[entity] = _Pending(obs, cat, cont, logp, value)

    def reward(self, entity, r: float) -> None:
        if entity in self.pending:
            self.pending[entity].rewards.append(float(r))

    def flush(self, entity, done: bool) -> None:
        p = self.pending.pop(entity, None)
        if p is None:
            return
        traj = self.trajs.get(entity)
        if traj is None:
            traj = self.trajs[entity] = Trajectory()
        # sum / count is np.mean bit for bit, without the wrapper overhead
        reward = float(np.add.reduce(p.rewards) / len(p.rewards))
        traj.add(p.obs, p.cat, p.cont, p.logp, p.value, reward, done)

    def flush_all(self, done: bool) -> None:
        for entity in list(self.pending):
            self.flush(entity, done)

    def end_episode(self, ppo_cfg: PpoConfig, rng: np.random.Generator) -> bool:
        """Move the episode's trajectories into the buffer and update once it
        holds a batch; True when an update ran."""
        self.buffer.extend(
            t.finalize(ppo_cfg.discount, ppo_cfg.gae_lambda) for t in self.trajs.values() if len(t)
        )
        self.trajs.clear()
        if sum(part["obs"].shape[0] for part in self.buffer) < self.threshold:
            return False
        batch = {k: np.concatenate([part[k] for part in self.buffer], axis=0) for k in self.buffer[0]}
        # looked up on the module at call time, so a replaced ppo.ppo_update is the one that runs
        ppo.ppo_update(self.net, batch, ppo_cfg, rng, optimizer=self.opt)
        self.buffer = []
        return True


# -- agents ---------------------------------------------------------------------


class RandomAgent:
    """Uniform draws over the raw action boxes; the env clamp keeps them feasible."""

    kind = "random"
    trainable = False

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng((cfg.seed, 101))

    def begin_episode(self, env: SpectrumSharingEnv) -> None:
        pass

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        n, tcount = cfg.num_subbands, cfg.num_transmitters
        m = cfg.nodes_per_region
        bundle: dict = {}
        if t % cfg.decision_intervals[0] == 0:
            bundle["global"] = slots_to_global(self.rng.integers(0, cfg.beams + 1, n), cfg.beams)
        if t % cfg.decision_intervals[1] == 0:
            slots = [self.rng.integers(0, m + 1, n) for _ in range(cfg.num_regions)]
            bundle["regional"] = dict(enumerate(slots_to_region(slots, m)))
        bundle["local"] = {
            "beta": self.rng.integers(0, 2, (tcount, n)),
            "alpha": self.rng.uniform(0.0, 1.0, (tcount, n)),
            "dp": self.rng.uniform(-cfg.uav_step, cfg.uav_step, (tcount, 2)),
        }
        return bundle

    def record(self, rewards: dict, done: bool) -> None:
        pass

    def end_episode(self) -> None:
        pass


# joint candidates scored per batched pass of exhaustive_solve; bounds its
# working memory whatever the search space
EXHAUSTIVE_CHUNK = 256


def _subband_states(cfg: ScenarioConfig) -> tuple[int, int]:
    """A subband's states in the joint search (idle, or a beam with a node
    digit, 0 = unused, per region of the beam), and how many are per beam."""
    per_beam = (cfg.nodes_per_region + 1) ** (cfg.haps_per_beam * cfg.regions_per_hap)
    return 1 + cfg.beams * per_beam, per_beam


def count_joint_candidates(cfg: ScenarioConfig) -> int:
    """Exact size of the joint global x regional discrete search space."""
    return _subband_states(cfg)[0] ** cfg.num_subbands


def exhaustive_solve(cfg: ScenarioConfig) -> dict:
    """Enumerate every joint (global, regional) allocation under frozen fading.

    Local actions are fixed to a heuristic: full access on granted subbands,
    equal power split, no movement; the best candidate's local action is
    returned under "local".  The best candidate maximizes network spectral
    efficiency, with network fairness breaking ties, then the lowest key
    (global digit per subband, then node digits region-major, subband
    ascending).  Requires fading_frozen.

    Candidate ``c`` is a mixed-radix number with one digit per subband (the
    first subband least significant), the subband's state
    (``_subband_states``); chunks of ``EXHAUSTIVE_CHUNK`` candidates go
    through association, interference and rates at once.
    """
    if not cfg.fading_frozen:
        raise ValueError("exhaustive_solve requires fading_frozen=true")
    total = count_joint_candidates(cfg)
    if total > cfg.exhaustive_cap:
        raise EnumerationCapError(
            f"search space too large: {total} joint allocations exceed cap {cfg.exhaustive_cap}"
        )

    topo = build_topology(cfg, np.random.default_rng(cfg.seed))
    home = np.stack([nd.position for nd in topo.transmitters()])
    gains = link_gains(topo, home, rng=None, frozen=True)
    power = topo.tx_power_w
    n, m = cfg.num_subbands, cfg.nodes_per_region
    states, per_beam = _subband_states(cfg)
    regions_per_beam = cfg.haps_per_beam * cfg.regions_per_hap

    # (states, T) regional column of each subband state: idle, then each
    # beam's states, one node digit per region of the beam (the first region
    # least significant), picking rows of the beam's contiguous block
    region_place = (m + 1) ** np.arange(regions_per_beam)
    node_digits = np.arange(per_beam)[:, None] // region_place % (m + 1)  # (per_beam, regions)
    beam_block = slots_to_region(node_digits, m).transpose(0, 2, 1).reshape(per_beam, -1)
    idle = np.zeros((1, cfg.num_transmitters), dtype=np.int8)
    columns = np.concatenate([idle, np.kron(np.eye(cfg.beams, dtype=np.int8), beam_block)])
    place = states ** np.arange(n)

    def decode(idx):
        """Subband states (C, N), and the regional and alpha (C, T, N) of
        candidates ``idx``."""
        digits = idx[:, None] // place % states
        regional = np.ascontiguousarray(columns[digits].transpose(0, 2, 1))
        counts = regional.sum(axis=-1, keepdims=True)
        alpha = np.divide(regional, counts, out=np.zeros(regional.shape), where=counts > 0)
        return digits, regional, alpha

    eta = np.empty(total)
    fairness = np.empty(total)
    for start in range(0, total, EXHAUSTIVE_CHUNK):
        idx = np.arange(start, min(start + EXHAUSTIVE_CHUNK, total))
        _, regional, alpha = decode(idx)
        # the channel and rate code read only the link fields; beta is the grant
        alloc = AllocationState(
            global_alloc=None, regional=regional, beta=regional, alpha=alpha, dp=None
        )
        assoc = associate_users(topo, gains, regional)
        interference = co_channel_interference(
            topo, gains, alloc, power, assoc, cfg.interference_scope
        )
        _, rates = served_user_rates(cfg, alloc, ChannelSnapshot(gains, assoc, interference, power))
        eta[idx] = spectral_efficiency(rates, cfg.total_bandwidth)
        fairness[idx] = jain_fairness(rates)

    tied = np.flatnonzero(eta == eta.max())
    tied = tied[fairness[tied] == fairness[tied].max()]
    digits, regional, alpha = decode(tied)
    grant = np.where(digits == 0, 0, 1 + (digits - 1) // per_beam)  # beam + 1, 0 = idle
    # node digit (0 = unused) of each (region, subband), region-major
    picks = regional.reshape(len(tied), cfg.num_regions, m, n) * np.arange(1, m + 1)[:, None]
    keys = np.concatenate([grant, picks.sum(axis=2).reshape(len(tied), -1)], axis=1)
    win = int(np.lexsort(keys.T[::-1])[0])  # lexsort's last key is the primary one
    regional, alpha = regional[win], alpha[win]
    return {
        "eta": float(eta[tied[win]]),
        "fairness": float(fairness[tied[win]]),
        "global": slots_to_global(grant[win], cfg.beams),
        "regional": {
            region: regional[region * m : (region + 1) * m].copy()
            for region in range(cfg.num_regions)
        },
        "local": {"beta": regional, "alpha": alpha, "dp": np.zeros((cfg.num_transmitters, 2))},
        "candidates": total,
    }


class ExhaustiveAgent:
    """Solves the exhaustive search at every regional decision epoch and
    applies the optimum with its heuristic local action.

    Each solve is a fresh joint (global and regional) search; the global
    part goes to the env only at global epochs, which are regional epochs
    too.  Under frozen fading with the UAVs at home the problem is the same
    at every epoch, so every solve returns the same allocation.
    """

    kind = "exhaustive"
    trainable = False

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.solution: dict | None = None

    def begin_episode(self, env: SpectrumSharingEnv) -> None:
        pass

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        bundle: dict = {}
        if t % cfg.decision_intervals[1] == 0:
            self.solution = exhaustive_solve(cfg)
            if t % cfg.decision_intervals[0] == 0:
                bundle["global"] = self.solution["global"]
            bundle["regional"] = self.solution["regional"]
        bundle["local"] = self.solution["local"]
        return bundle

    def record(self, rewards: dict, done: bool) -> None:
        pass

    def end_episode(self) -> None:
        pass


class _PpoAgentBase:
    """Shared machinery of the learned agents: policy slots, episode ends,
    checkpoints.  Each agent class still defines its own ``act``, ``record``
    and ``end_episode``, so per-class tracing finds all three."""

    trainable = True

    def __init__(self, cfg: ScenarioConfig, rng_tag: int):
        self.cfg = cfg
        self.ppo = cfg.ppo
        self.rng = np.random.default_rng((cfg.seed, rng_tag))
        self.updates = 0
        self.episodes_trained = 0
        self.slots: dict[str, _PolicySlot] = {}

    def _add_slot(
        self, name: str, input_dim: int, schema: ActionSchema, threshold: int | None = None
    ) -> _PolicySlot:
        """A new slot updating at ``threshold`` transitions (default: the batch
        size); each net draws its initial weights from the agent's generator,
        in creation order."""
        net = PolicyNet(input_dim, schema, rng=self.rng)
        self.slots[name] = _PolicySlot(net, self.ppo, threshold or self.ppo.batch_size)
        return self.slots[name]

    def net_dict(self) -> dict[str, PolicyNet]:
        return {name: slot.net for name, slot in self.slots.items()}

    def begin_episode(self, env: SpectrumSharingEnv) -> None:
        for slot in self.slots.values():
            slot.pending.clear()

    def _end_episode(self) -> None:
        self.episodes_trained += 1
        for slot in self.slots.values():
            self.updates += slot.end_episode(self.ppo, self.rng)

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"episodes_trained": self.episodes_trained, "updates": self.updates}
        meta.update(extra_meta or {})
        save_checkpoint(
            path, self.kind, self.cfg.config_hash(), self.net_dict(), self.ppo, self.rng, meta
        )

    def load(self, path) -> None:
        blob = load_checkpoint(path)
        if blob["kind"] != self.kind:
            raise ValueError(f"checkpoint kind {blob['kind']!r} does not match agent {self.kind!r}")
        if blob["config_hash"] != self.cfg.config_hash():
            raise ValueError(
                "checkpoint config hash mismatch: refusing to load weights trained on a different scenario"
            )
        mine, theirs = self.net_dict(), blob["nets"]
        for name in sorted(set(mine) ^ set(theirs)):
            where = "checkpoint" if name in theirs else "agent"
            raise ValueError(f"net {name!r} exists only in the {where}: refusing to load")
        # check every net before assigning any, so a refused load changes nothing
        for name, net in theirs.items():
            for key, value in net.params.items():
                if value.shape != mine[name].params[key].shape:
                    raise ValueError(
                        f"net {name!r} parameter {key!r} has shape {value.shape} in the checkpoint, "
                        f"{mine[name].params[key].shape} in the agent: refusing to load"
                    )
        for name, net in theirs.items():
            mine[name].params = net.params
        self.rng = blob["rng"]
        self.episodes_trained = int(blob["meta"].get("episodes_trained", 0))
        self.updates = int(blob["meta"].get("updates", 0))


class HdrlAgent(_PpoAgentBase):
    """Three shared policies gated by the decision intervals."""

    kind = "hdrl"

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg, rng_tag=301)
        dims = obs_dims(cfg)
        n, m = cfg.num_subbands, cfg.nodes_per_region
        r = cfg.regions_per_hap
        bs = self.ppo.batch_size
        # tiers gather transitions at very different rates (local: T per step,
        # global: 1 per ds steps); each updates once its own buffer holds a
        # workable batch so slow tiers see more than a couple of samples
        self.g_slot = self._add_slot(
            "global", dims["global"], ActionSchema(cat_arities=(cfg.beams + 1,) * n), max(8, bs // 50)
        )
        self.r_slot = self._add_slot(
            "regional", dims["regional"], ActionSchema(cat_arities=(m + 1,) * (r * n)), max(8, bs // 10)
        )
        self.l_slot = self._add_slot("local", dims["local"], _local_schema(cfg))
        self.net_g, self.net_r, self.net_l = self.g_slot.net, self.r_slot.net, self.l_slot.net

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        n, m = cfg.num_subbands, cfg.nodes_per_region
        bundle: dict = {}

        if t % cfg.decision_intervals[0] == 0:
            params = forward(self.net_g, obs["global"][None])
            if explore:
                action, logp = sample_action(params, self.rng)
                self.g_slot.start(
                    "sat", obs["global"], action.cat[0], action.cont[0], logp[0], params.value[0]
                )
            else:
                action = mode_action(params)
            bundle["global"] = slots_to_global(action.cat[0], cfg.beams)

        # The HAPs share the regional policy and the regions share the local
        # one: each tier runs one stacked forward (see ppo.forward), then
        # decides entity by entity, in the order a forward per entity would.
        if t % cfg.decision_intervals[1] == 0:
            hap_obs = obs["regional"]
            stacked = forward(self.net_r, hap_obs[:, None, :])
            cats = []
            for hap in range(cfg.num_haps):
                params = stacked[hap]
                if explore:
                    action, logp = sample_action(params, self.rng)
                    self.r_slot.start(
                        hap, hap_obs[hap], action.cat[0], action.cont[0], logp[0], params.value[0]
                    )
                else:
                    action = mode_action(params)
                cats.append(action.cat[0])
            # a HAP's slots are its regions' slots in region order
            mats = slots_to_region(np.array(cats).reshape(cfg.num_regions, n), m)
            bundle["regional"] = dict(enumerate(mats))

        local_obs = obs["local"]
        stacked = forward(self.net_l, local_obs.reshape(cfg.num_regions, m, -1))
        cats, conts = [], []
        for region in range(cfg.num_regions):
            params = stacked[region]
            if explore:
                action, logp = sample_action(params, self.rng)
                for i, row in enumerate(range(region * m, (region + 1) * m)):
                    self.l_slot.start(
                        row, local_obs[row], action.cat[i], action.cont[i], logp[i], params.value[i]
                    )
            else:
                action = mode_action(params)
            cats.append(action.cat)
            conts.append(action.cont)
        cont = np.concatenate(conts)
        bundle["local"] = {
            "beta": np.concatenate(cats).astype(np.int8),
            "alpha": cont[:, :n],
            "dp": cont[:, n:],
        }
        return bundle

    def record(self, rewards: dict, done: bool) -> None:
        cfg = self.cfg
        self.g_slot.reward("sat", rewards["r_s"])
        for hap in range(cfg.num_haps):
            self.r_slot.reward(hap, rewards["r_h"][hap])
        local = self.l_slot
        for row, r in enumerate(np.repeat(rewards["r_l"], cfg.nodes_per_region).tolist()):
            local.reward(row, r)
        if done:
            for slot in self.slots.values():
                slot.flush_all(done=True)

    def end_episode(self) -> None:
        self._end_episode()


class SadrlAgent(_PpoAgentBase):
    """One flat policy over the concatenated observation; full action every step."""

    kind = "sadrl"

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg, rng_tag=302)
        dims = obs_dims(cfg)
        n, m = cfg.num_subbands, cfg.nodes_per_region
        tcount = cfg.num_transmitters
        s = cfg.uav_step
        input_dim = dims["global"] + cfg.num_haps * dims["regional"] + tcount * dims["local"]
        schema = ActionSchema(
            cat_arities=(cfg.beams + 1,) * n
            + (m + 1,) * (cfg.num_regions * n)
            + (2,) * (tcount * n),
            cont_bounds=((0.0, 1.0),) * (tcount * n) + ((-s, s), (-s, s)) * tcount,
        )
        self.policy = self._add_slot("policy", input_dim, schema)

    def flat_obs(self, obs: dict) -> np.ndarray:
        """One fresh vector: global, then the HAPs in order, then the transmitters in order."""
        return np.concatenate(
            (obs["global"], obs["regional"].reshape(-1), obs["local"].reshape(-1))
        )

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        n, m = cfg.num_subbands, cfg.nodes_per_region
        tcount, regions = cfg.num_transmitters, cfg.num_regions
        X = self.flat_obs(obs)
        params = forward(self.policy.net, X[None])
        if explore:
            action, logp = sample_action(params, self.rng)
            self.policy.start("all", X, action.cat[0], action.cont[0], logp[0], params.value[0])
            cat, cont = action.cat[0], action.cont[0]

            def slots(lo, hi):
                return cat[lo:hi]

        else:
            # greedy: decode only the slots the env consumes at this step
            cont = mode_cont(params)[0]

            def slots(lo, hi):
                return mode_slots(params, lo, hi)[0]

        bundle: dict = {}
        if t % cfg.decision_intervals[0] == 0:
            bundle["global"] = slots_to_global(slots(0, n), cfg.beams)
        if t % cfg.decision_intervals[1] == 0:
            region_slots = slots(n, n + regions * n).reshape(regions, n)
            bundle["regional"] = dict(enumerate(slots_to_region(region_slots, m)))
        beta_start = n + regions * n
        beta = slots(beta_start, beta_start + tcount * n).reshape(tcount, n)
        alpha = cont[: tcount * n].reshape(tcount, n)
        dp = cont[tcount * n :].reshape(tcount, 2)
        bundle["local"] = {"beta": beta, "alpha": alpha, "dp": dp}
        return bundle

    def record(self, rewards: dict, done: bool) -> None:
        self.policy.reward("all", rewards["r_s"])
        self.policy.flush("all", done=done)

    def end_episode(self) -> None:
        self._end_episode()


class MadrlAgent(_PpoAgentBase):
    """Independent per-region PPO agents; the global grant is a fixed round-robin."""

    kind = "madrl"

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg, rng_tag=303)
        dims = obs_dims(cfg)
        n, m = cfg.num_subbands, cfg.nodes_per_region
        s = cfg.uav_step
        input_dim = n + 2 * m + m * dims["local"]
        schema = ActionSchema(
            cat_arities=(m + 1,) * n + (2,) * (m * n),
            cont_bounds=((0.0, 1.0),) * (m * n) + ((-s, s), (-s, s)) * m,
        )
        self.region_slots = [
            self._add_slot(f"region_{i}", input_dim, schema) for i in range(cfg.num_regions)
        ]
        # all subbands granted, beams interleaved
        g = np.zeros((cfg.beams, n), dtype=np.int8)
        g[np.arange(n) % cfg.beams, np.arange(n)] = 1
        self.fixed_global = g

    def _region_obs(self, obs: dict) -> np.ndarray:
        """(num_regions, input_dim): the HAP's grant mask, the region's node
        loads and gains, then the region's local observations."""
        cfg = self.cfg
        n, m = cfg.num_subbands, cfg.nodes_per_region
        regions, rph = cfg.num_regions, cfg.regions_per_hap
        hap_obs = obs["regional"]
        mask = np.repeat(hap_obs[:, :n], rph, axis=0)
        load = hap_obs[:, n : n + rph * m].reshape(regions, m)
        gain = hap_obs[:, n + rph * m :].reshape(regions, m)
        local = obs["local"].reshape(regions, -1)
        return np.concatenate([mask, load, gain, local], axis=1)

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        n, m = cfg.num_subbands, cfg.nodes_per_region
        tcount = cfg.num_transmitters
        bundle: dict = {}
        if t % cfg.decision_intervals[0] == 0:
            bundle["global"] = self.fixed_global
        cats, conts = [], []
        region_obs = self._region_obs(obs)
        for region, slot in enumerate(self.region_slots):
            X = region_obs[region]
            params = forward(slot.net, X[None])
            if explore:
                action, logp = sample_action(params, self.rng)
                slot.start(region, X, action.cat[0], action.cont[0], logp[0], params.value[0])
            else:
                action = mode_action(params)
            cats.append(action.cat[0])
            conts.append(action.cont[0])
        cat, cont = np.array(cats), np.array(conts)
        # no timescale gating inside the agent: the full per-region action
        # (assignment included) is produced every step; the schedule only
        # controls what the env consumes
        if t % cfg.decision_intervals[1] == 0:
            bundle["regional"] = dict(enumerate(slots_to_region(cat[:, :n], m)))
        bundle["local"] = {
            "beta": cat[:, n:].reshape(tcount, n).astype(np.int8),
            "alpha": cont[:, : m * n].reshape(tcount, n),
            "dp": cont[:, m * n :].reshape(tcount, 2),
        }
        return bundle

    def record(self, rewards: dict, done: bool) -> None:
        for region, slot in enumerate(self.region_slots):
            slot.reward(region, rewards["r_l"][region])
            slot.flush(region, done=done)

    def end_episode(self) -> None:
        self._end_episode()


def make_agent(kind: str, cfg: ScenarioConfig):
    if kind == "random":
        return RandomAgent(cfg)
    if kind == "exhaustive":
        return ExhaustiveAgent(cfg)
    if kind == "sadrl":
        return SadrlAgent(cfg)
    if kind == "madrl":
        return MadrlAgent(cfg)
    if kind == "hdrl":
        return HdrlAgent(cfg)
    raise ValueError(f"unknown agent kind {kind!r}; choose from {AGENT_KINDS}")


# -- training and evaluation loops ------------------------------------------------


def train(agent, env: SpectrumSharingEnv, episodes: int | None = None, on_episode=None) -> list[dict]:
    """Run training episodes; one log row per episode.

    Deterministic for a fixed config seed: episode channel streams derive
    from the seed, and all agent randomness comes from seeded generators.
    """
    if not agent.trainable:
        raise ValueError(f"agent kind {agent.kind!r} is not trainable")
    cfg = env.cfg
    episodes = cfg.episodes if episodes is None else episodes
    rows = []
    for episode in range(episodes):
        obs = env.reset()
        agent.begin_episode(env)
        step_metrics = []
        for t in range(cfg.steps_per_episode):
            bundle = agent.act(obs, t, explore=True)
            obs, rewards, _, truncated, metrics = env.step(bundle)
            agent.record(rewards, done=truncated)
            step_metrics.append(metrics)
        agent.end_episode()
        summary = episode_summary(step_metrics)
        row = {"episode": episode, **summary}
        rows.append(row)
        if on_episode is not None:
            on_episode(row)
    return rows


def evaluate(
    agent,
    env: SpectrumSharingEnv,
    episodes: int = 1,
    eval_seed_base: int = 100_000,
) -> dict:
    """Greedy-policy evaluation with per-episode decision timing.

    Channel streams are reseeded per episode from eval_seed_base so repeat
    runs see identical conditions.  Wall-clock timing covers only action
    computation (``begin_episode`` and ``act``, the exhaustive agent's
    solves included), never environment physics.
    """
    cfg = env.cfg
    clock = time.perf_counter
    per_episode = []
    step_rows = []
    throughput = []
    for episode in range(episodes):
        obs = env.reset(seed=eval_seed_base + episode)
        t0 = clock()
        agent.begin_episode(env)
        decision_time = clock() - t0
        step_metrics = []
        series = []
        act = agent.act
        for t in range(cfg.steps_per_episode):
            # keep the timed window to the call itself: the clock and the bound
            # method are looked up outside it
            t0 = clock()
            bundle = act(obs, t, False)
            decision_time += clock() - t0
            obs, rewards, _, truncated, metrics = env.step(bundle)
            step_metrics.append(metrics)
            series.append(metrics.r_avg)
            step_rows.append(
                {
                    "step": t,
                    "throughput_bps": metrics.r_avg,
                    "eta": metrics.eta,
                    "fairness": metrics.fairness,
                    "episode": episode,
                }
            )
        summary = episode_summary(step_metrics)
        summary["decision_time_s"] = decision_time
        summary["spectrum_utilization"] = float(
            np.mean([m.spectrum_utilization for m in step_metrics])
        )
        per_episode.append(summary)
        throughput.append(series)
    out = {
        "episodes": per_episode,
        "eta_mean": float(np.mean([e["eta"] for e in per_episode])),
        "throughput_mean": float(np.mean([e["r_avg"] for e in per_episode])),
        "fairness_mean": float(np.mean([e["fairness"] for e in per_episode])),
        "cumulative_reward_mean": float(np.mean([e["cumulative_reward"] for e in per_episode])),
        "decision_time_s": [e["decision_time_s"] for e in per_episode],
        "spectrum_utilization_mean": float(
            np.mean([e["spectrum_utilization"] for e in per_episode])
        ),
        "per_step_throughput": throughput,
        "steps": step_rows,
    }
    return out
