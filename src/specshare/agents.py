"""Allocation agents: random, exhaustive search, flat PPO, per-region PPO,
and the hierarchical three-tier PPO, plus the shared train/evaluate loops.

Every agent speaks one protocol: ``begin_episode(env)``, ``act(obs, t,
explore)`` returning an action bundle, ``record(rewards)`` with the step's
reward dict, and ``end_episode()``, which is where an episode ends.

Action factorization (shared by all learned agents):

* global: one categorical slot per subband with arity beams+1 (0 = leave
  idle, k = grant to beam k-1);
* regional: one slot per (region, subband) with arity nodes_per_region+1
  (0 = unused, k = node k-1 of that region);
* local, per node: one binary slot per subband (access mask), one
  box-bounded continuous slot per subband (power fraction), and a 2D
  movement slot bounded by the per-step UAV displacement limit.

Every learned policy decides through ``_PolicySlot.decide``: one stacked
``(S, B, D)`` forward, then one ``mode_action`` when greedy, or one
``sample_action`` on the stack when exploring (each batch makes the draws of
a call on it alone), whose decisions for all ``S * B`` entities go into the
slot's ``Trajectory`` as one epoch.  ``record`` hands each slot one step's
rewards as one vector, one per entity, and at the episode's end the slot
turns its trajectory into training rows with GAE over all entities at once.
The one exception is the flat baseline's greedy step, which decodes only the
slots the env takes at that step (``mode_slots`` from a start slot).  The
hierarchical agent evaluates its shared local policy over all regions
(each region's nodes as one batch) every step and its shared regional
policy over all HAPs (one row each) at that tier's decision steps; its
global policy is one ``(1, 1, D)`` stack.  The per-region baseline runs one
separate PPO per region every step; the flat baseline runs one network
over the concatenated observation every step.  Every agent hands the env
its regional action as one ``(num_regions, nodes, N)`` array.  Stacks
only: every forward gets a float ``(B, D)`` batch or ``(S, B, D)`` stack
(the flat baseline's greedy step a ``(1, D)`` batch), and every local
action is the ``(T, ·)`` arrays the env clamps in one call.

The exhaustive search scores each distinct joint allocation once (a
subband granted to a beam but used by none of its nodes is the idle
subband) through the env's own channel and rate code, reading the scenario
from the topology it searches, and returns the optimum of the whole joint
space.
"""

from __future__ import annotations

import time

import numpy as np

from . import ppo
from .allocation import AllocationState
from .channel import ChannelSnapshot, associate_users, co_channel_interference, link_gains
from .config import PpoConfig, ScenarioConfig
from .env import SpectrumSharingEnv, episode_summary
from .metrics import jain_fairness, served_user_rates, spectral_efficiency
from .ppo import (
    ActionBatch,
    ActionSchema,
    Adam,
    PolicyNet,
    Trajectory,
    UpdateReport,
    forward,
    load_checkpoint,
    mode_action,
    mode_cont,
    mode_slots,
    sample_action,
    save_checkpoint,
)
from .topology import Topology, build_topology

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
    """Per-subband choices (0 = none, k = row k-1) to a binary matrix: a
    region's node choices give its (nodes, N) matrix, the satellite's beam
    choices the (beams, N) grant.

    Leading axes carry through, so (R, N) choices give R matrices at once.
    """
    slots = np.asarray(slots, dtype=int)
    return (slots[..., None, :] == np.arange(1, nodes + 1)[:, None]).astype(np.int8)


def _local_schema(cfg: ScenarioConfig) -> ActionSchema:
    n = cfg.num_subbands
    s = cfg.uav_step
    return ActionSchema(
        cat_arities=(2,) * n,
        cont_bounds=((0.0, 1.0),) * n + ((-s, s), (-s, s)),
    )


# -- policy slots ----------------------------------------------------------------


class _PolicySlot:
    """One PPO policy and its bookkeeping.

    Owns the net and its Adam state, the episode's ``Trajectory`` (every
    entity's decisions, epoch by epoch), and the batch buffer, which feeds
    one PPO update once it holds ``threshold`` transitions.
    """

    def __init__(self, net: PolicyNet, ppo_cfg: PpoConfig, threshold: int):
        self.net = net
        self.opt = Adam(net.flat, ppo_cfg.learning_rate)
        self.threshold = threshold
        self.traj = Trajectory()
        self.buffer: list[dict] = []

    def decide(self, obs: np.ndarray, rng: np.random.Generator, explore: bool) -> ActionBatch:
        """Actions for a stacked (S, B, D) observation whose entity ``s * B + i``
        is row ``i`` of batch ``s``, as (S * B, ·) arrays in entity order.

        Greedy, one ``mode_action`` decides every entity.  Exploring, one
        ``sample_action`` on the stack draws batch by batch, in the order a
        call per batch would, and the decisions go into the trajectory as
        one epoch.
        """
        S, B = obs.shape[:2]
        stacked = forward(self.net, obs)
        if not explore:
            action = mode_action(stacked)
            return ActionBatch(
                cat=action.cat.reshape(S * B, action.cat.shape[-1]),
                cont=action.cont.reshape(S * B, action.cont.shape[-1]),
            )
        action, logp = sample_action(stacked, rng)
        self.traj.add(obs.reshape(S * B, -1), action.cat, action.cont, logp, stacked.value.reshape(S * B))
        return action

    def reward(self, r) -> None:
        """One step's rewards, one per entity, for the latest decisions."""
        self.traj.reward(r)

    def end_episode(self, ppo_cfg: PpoConfig, rng: np.random.Generator) -> UpdateReport | None:
        """Move the episode's trajectory into the buffer and update once it
        holds a batch; the update's report, or None when no update ran."""
        if len(self.traj):
            self.buffer.append(self.traj.finalize(ppo_cfg.discount, ppo_cfg.gae_lambda))
        self.traj = Trajectory()
        if sum(part["obs"].shape[0] for part in self.buffer) < self.threshold:
            return None
        batch = {k: np.concatenate([part[k] for part in self.buffer], axis=0) for k in self.buffer[0]}
        # looked up on the module at call time, so a replaced ppo.ppo_update is the one that runs
        report = ppo.ppo_update(self.net, batch, ppo_cfg, rng, optimizer=self.opt)
        self.buffer = []
        return report


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
        if cfg.global_due(t):
            bundle["global"] = slots_to_region(self.rng.integers(0, cfg.beams + 1, n), cfg.beams)
        if cfg.regional_due(t):
            slots = [self.rng.integers(0, m + 1, n) for _ in range(cfg.num_regions)]
            bundle["regional"] = slots_to_region(slots, m)
        bundle["local"] = {
            "beta": self.rng.integers(0, 2, (tcount, n)),
            "alpha": self.rng.uniform(0.0, 1.0, (tcount, n)),
            "dp": self.rng.uniform(-cfg.uav_step, cfg.uav_step, (tcount, 2)),
        }
        return bundle

    def record(self, rewards: dict) -> None:
        pass

    def end_episode(self) -> None:
        pass


class SearchRefusedError(ValueError):
    """The exhaustive search cannot run on this scenario: its fading is not
    frozen, or its joint space exceeds the enumeration cap."""


# distinct joint allocations scored per batched pass of exhaustive_solve;
# bounds its working memory whatever the search space
EXHAUSTIVE_CHUNK = 256


def _subband_states(cfg: ScenarioConfig) -> tuple[int, int]:
    """How many node digit combinations (a digit per region of the beam,
    0 = unused) a beam has, and how many distinct states a subband has in the
    joint search: idle, or a beam with a combination that uses a node.  A
    beam granted to no node leaves the subband's regional column idle."""
    per_beam = (cfg.nodes_per_region + 1) ** (cfg.haps_per_beam * cfg.regions_per_hap)
    return per_beam, 1 + cfg.beams * (per_beam - 1)


def count_joint_candidates(cfg: ScenarioConfig) -> int:
    """Exact size of the joint global x regional discrete search space: per
    subband, idle or a beam with any node digits."""
    return (1 + cfg.beams * _subband_states(cfg)[0]) ** cfg.num_subbands


class JointSearch:
    """What every exhaustive solve of one scenario shares: the topology,
    which alone records the scenario, the frozen gains at the transmitters'
    home positions and their own-region blocks, and each distinct subband
    state's regional column and grant.  Raises ``SearchRefusedError`` for a scenario it cannot solve."""

    def __init__(self, topo: Topology):
        cfg = topo.cfg
        if not cfg.fading_frozen:
            raise SearchRefusedError("exhaustive_solve requires fading_frozen=true")
        total = count_joint_candidates(cfg)
        if total > cfg.exhaustive_cap:
            raise SearchRefusedError(
                f"search space too large: {total} joint allocations exceed cap {cfg.exhaustive_cap}"
            )
        self.topo, self.total = topo, total
        home = np.stack([nd.position for nd in topo.transmitters()])
        self.gains = link_gains(topo, home, rng=None)
        self.region_gains = topo.own_region_gains(self.gains)
        m = cfg.nodes_per_region
        per_beam, self.states = _subband_states(cfg)
        regions_per_beam = cfg.haps_per_beam * cfg.regions_per_hap
        # (states, T) regional column of each distinct subband state: idle,
        # then each beam's node digit combinations but the all-unused one (the
        # first region's digit least significant), picking rows of the beam's
        # contiguous block; grant is the state's beam + 1, 0 = idle
        region_place = (m + 1) ** np.arange(regions_per_beam)
        node_digits = np.arange(1, per_beam)[:, None] // region_place % (m + 1)  # (per_beam - 1, regions)
        beam_block = slots_to_region(node_digits, m).transpose(0, 2, 1).reshape(per_beam - 1, -1)
        idle = np.zeros((1, cfg.num_transmitters), dtype=np.int8)
        self.columns = np.concatenate([idle, np.kron(np.eye(cfg.beams, dtype=np.int8), beam_block)])
        self.grant = np.repeat(np.arange(cfg.beams + 1), [1] + [per_beam - 1] * cfg.beams)
        self.place = self.states ** np.arange(cfg.num_subbands)
        self.scored = self.states**cfg.num_subbands

    def decode(self, idx):
        """Subband states (C, N), and the regional and alpha (C, T, N) of
        distinct candidates ``idx``."""
        digits = idx[:, None] // self.place % self.states
        regional = np.ascontiguousarray(self.columns[digits].transpose(0, 2, 1))
        counts = regional.sum(axis=-1, keepdims=True)
        alpha = np.divide(regional, counts, out=np.zeros(regional.shape), where=counts > 0)
        return digits, regional, alpha


def exhaustive_solve(cfg: ScenarioConfig | None = None, *, search: JointSearch | None = None) -> dict:
    """Find the best joint (global, regional) allocation under frozen fading.

    Local actions are fixed to a heuristic: full access on granted subbands,
    equal power split, no movement; the best candidate's local action is
    returned under "local".  The best candidate maximizes network spectral
    efficiency, with network fairness breaking ties, then the lowest key
    (global digit per subband, then node digits region-major, subband
    ascending).  Requires fading_frozen.

    Every distinct joint allocation is scored once.  A subband granted to a
    beam but used by none of its nodes scores as the idle subband, whose key
    is lower, so such candidates can never win and are not enumerated: the
    optimum is that of the whole joint space, whose size is returned under
    "candidates".  Scored candidate ``c`` is a mixed-radix number with one
    digit per subband (the first subband least significant), the subband's
    distinct state (``_subband_states``); chunks of ``EXHAUSTIVE_CHUNK``
    candidates go through association, interference and rates at once.
    ``search`` is a scenario prepared once (``JointSearch``), and the solve
    reads the scenario from its topology; without it the topology is built
    from ``cfg`` and ``cfg.seed``.
    """
    if search is None:
        search = JointSearch(build_topology(cfg, np.random.default_rng(cfg.seed)))
    topo, gains, scored = search.topo, search.gains, search.scored
    cfg = topo.cfg
    n, m = cfg.num_subbands, cfg.nodes_per_region

    eta = np.empty(scored)
    fairness = np.empty(scored)
    for start in range(0, scored, EXHAUSTIVE_CHUNK):
        idx = np.arange(start, min(start + EXHAUSTIVE_CHUNK, scored))
        _, regional, alpha = search.decode(idx)
        # the channel and rate code read only the link fields; beta is the grant
        alloc = AllocationState(
            global_alloc=None, regional=regional, beta=regional, alpha=alpha, dp=None
        )
        assoc = associate_users(topo, search.region_gains, regional)
        interference = co_channel_interference(topo, gains, alloc, assoc)
        _, rates = served_user_rates(topo, alloc, ChannelSnapshot(gains, assoc, interference))
        eta[idx] = spectral_efficiency(rates, cfg.total_bandwidth)
        fairness[idx] = jain_fairness(rates)

    tied = np.flatnonzero(eta == eta.max())
    tied = tied[fairness[tied] == fairness[tied].max()]
    digits, regional, alpha = search.decode(tied)
    grant = search.grant[digits]  # beam + 1, 0 = idle
    # node digit (0 = unused) of each (region, subband), region-major
    picks = regional.reshape(len(tied), cfg.num_regions, m, n) * np.arange(1, m + 1)[:, None]
    keys = np.concatenate([grant, picks.sum(axis=2).reshape(len(tied), -1)], axis=1)
    win = int(np.lexsort(keys.T[::-1])[0])  # lexsort's last key is the primary one
    regional, alpha = regional[win], alpha[win]
    return {
        "eta": float(eta[tied[win]]),
        "fairness": float(fairness[tied[win]]),
        "global": slots_to_region(grant[win], cfg.beams),
        "regional": regional.reshape(cfg.num_regions, m, n),
        "local": {"beta": regional, "alpha": alpha, "dp": np.zeros((cfg.num_transmitters, 2))},
        "candidates": search.total,
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
        self.search: JointSearch | None = None

    def begin_episode(self, env: SpectrumSharingEnv) -> None:
        # the scene is fixed per env, so the search is prepared once per env
        if self.search is None or self.search.topo is not env.topology:
            self.search = JointSearch(env.topology)

    def act(self, obs: dict, t: int, explore: bool = True) -> dict:
        cfg = self.cfg
        bundle: dict = {}
        if cfg.regional_due(t):
            self.solution = exhaustive_solve(search=self.search)
            if cfg.global_due(t):
                bundle["global"] = self.solution["global"]
            bundle["regional"] = self.solution["regional"]
        bundle["local"] = self.solution["local"]
        return bundle

    def record(self, rewards: dict) -> None:
        pass

    def end_episode(self) -> None:
        pass


class _PpoAgentBase:
    """Shared machinery of the learned agents: policy slots, episode ends,
    checkpoints.  Each agent class still defines its own ``act``, ``record``
    and ``end_episode``, so per-class tracing finds all three.

    ``load`` checks the checkpoint's kind, config hash, net names, and each
    net's parameter names and shapes before it writes anything, then writes
    the saved arrays into the nets' own views."""

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
            slot.traj = Trajectory()

    def _end_episode(self) -> None:
        self.episodes_trained += 1
        for slot in self.slots.values():
            self.updates += slot.end_episode(self.ppo, self.rng) is not None

    def save(self, path) -> None:
        meta = {"episodes_trained": self.episodes_trained, "updates": self.updates}
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
        for name, params in theirs.items():
            own = mine[name].params
            for key in sorted(set(own) ^ set(params)):
                where = "checkpoint" if key in params else "agent"
                raise ValueError(
                    f"net {name!r} parameter {key!r} exists only in the {where}: refusing to load"
                )
            for key, value in params.items():
                if value.shape != own[key].shape:
                    raise ValueError(
                        f"net {name!r} parameter {key!r} has shape {value.shape} in the checkpoint, "
                        f"{own[key].shape} in the agent: refusing to load"
                    )
        for name, params in theirs.items():
            # into the net's views of its own vector, which Adam steps
            for key, value in params.items():
                mine[name].params[key][...] = value
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

        if cfg.global_due(t):
            action = self.g_slot.decide(obs["global"][None, None], self.rng, explore)
            bundle["global"] = slots_to_region(action.cat[0], cfg.beams)

        # The HAPs share the regional policy and the regions share the local
        # one: each tier runs one stacked forward (see ppo.forward) and
        # decides all its entities from it.
        if cfg.regional_due(t):
            action = self.r_slot.decide(obs["regional"][:, None, :], self.rng, explore)
            # a HAP's slots are its regions' slots in region order
            bundle["regional"] = slots_to_region(action.cat.reshape(cfg.num_regions, n), m)

        local_obs = obs["local"].reshape(cfg.num_regions, m, -1)
        action = self.l_slot.decide(local_obs, self.rng, explore)
        bundle["local"] = {
            "beta": action.cat.reshape(cfg.num_transmitters, n).astype(np.int8),
            "alpha": action.cont[:, :n],
            "dp": action.cont[:, n:],
        }
        return bundle

    def record(self, rewards: dict) -> None:
        self.g_slot.reward([rewards["r_s"]])
        self.r_slot.reward(rewards["r_h"])
        # a region's reward is each of its nodes'
        self.l_slot.reward(np.repeat(rewards["r_l"], self.cfg.nodes_per_region))

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
        local_n, regional_n = tcount * n, regions * n
        global_due = cfg.global_due(t)
        regional_due = cfg.regional_due(t)
        # the slots the env takes at this step are a suffix of the action: the
        # local ones every step, the regional ones at regional epochs, and the
        # global ones at global epochs, which are regional epochs too
        first = 0 if global_due else n if regional_due else n + regional_n
        X = self.flat_obs(obs)
        if explore:
            action = self.policy.decide(X[None, None], self.rng, explore)
            cat, cont = action.cat[0, first:], action.cont[0]
        else:
            # greedy: decode only those slots; a full mode_action makes sadrl's
            # greedy step cost nearly what hdrl's does
            params = forward(self.policy.net, X[None])
            cat, cont = mode_slots(params, first)[0], mode_cont(params)[0]
        bundle: dict = {}
        if global_due:
            bundle["global"] = slots_to_region(cat[:n], cfg.beams)
        if regional_due:
            region_slots = cat[-local_n - regional_n : -local_n].reshape(regions, n)
            bundle["regional"] = slots_to_region(region_slots, m)
        bundle["local"] = {
            "beta": cat[-local_n:].reshape(tcount, n),
            "alpha": cont[:local_n].reshape(tcount, n),
            "dp": cont[local_n:].reshape(tcount, 2),
        }
        return bundle

    def record(self, rewards: dict) -> None:
        self.policy.reward([rewards["r_s"]])

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
        if cfg.global_due(t):
            bundle["global"] = self.fixed_global
        region_obs = self._region_obs(obs)
        actions = [
            slot.decide(region_obs[region, None, None], self.rng, explore)
            for region, slot in enumerate(self.region_slots)
        ]
        cat = np.concatenate([a.cat for a in actions])
        cont = np.concatenate([a.cont for a in actions])
        # no timescale gating inside the agent: the full per-region action
        # (assignment included) is produced every step; the schedule only
        # controls what the env consumes
        if cfg.regional_due(t):
            bundle["regional"] = slots_to_region(cat[:, :n], m)
        bundle["local"] = {
            "beta": cat[:, n:].reshape(tcount, n).astype(np.int8),
            "alpha": cont[:, : m * n].reshape(tcount, n),
            "dp": cont[:, m * n :].reshape(tcount, 2),
        }
        return bundle

    def record(self, rewards: dict) -> None:
        for region, slot in enumerate(self.region_slots):
            slot.reward(rewards["r_l"][region : region + 1])

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
            obs, rewards, _, _, metrics = env.step(bundle)
            agent.record(rewards)
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
    for episode in range(episodes):
        obs = env.reset(seed=eval_seed_base + episode)
        t0 = clock()
        agent.begin_episode(env)
        decision_time = clock() - t0
        step_metrics = []
        act = agent.act
        for t in range(cfg.steps_per_episode):
            # keep the timed window to the call itself: the clock and the bound
            # method are looked up outside it
            t0 = clock()
            bundle = act(obs, t, False)
            decision_time += clock() - t0
            obs, _, _, _, metrics = env.step(bundle)
            step_metrics.append(metrics)
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
        "steps": step_rows,
    }
    return out
