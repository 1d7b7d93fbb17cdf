"""Self-contained PPO in numpy: policy network, GAE, clipped update, Adam.

The policy is a two-hidden-layer tanh MLP with a factorized action head:
a block of categorical slots (independent softmaxes, possibly different
arities) and a block of box-bounded continuous slots (state-dependent mean,
free log-std, tanh squash with the exact log-prob Jacobian correction).
Gradients are hand-derived and verified against central finite differences
by ``grad_check``.

A net's parameters are named views into one flat vector
(``PolicyNet.flat``), each starting on a 64-byte boundary, and Adam keeps
its moments as flat vectors and updates them in place.  Each ``ppo_update``
allocates one workspace that all its minibatch steps reuse: four (minibatch,
hidden) buffers for the hidden activations and their gradients, and one flat
gradient vector whose named views are the grads ``loss_and_grads`` returns.
The bits are those of the same update computed with new arrays key by key:
``np.matmul(..., out=)`` runs the same BLAS call as ``@``, every in-place
ufunc keeps the operation order of the written-out expression, and the
grad-norm clip sums its squares key by key in the order the gradients are
computed.  ``forward``, the decision path, takes no workspace and allocates
new activation arrays.  ``sample_action`` and ``mode_action`` both return
its stacked (S, B, ·) params' actions as (S·B, ·) arrays in entity order.

A minibatch step does only the work that depends on the weights.  The
values that depend only on the stored actions (``action_constants``: the
one-hot of the taken categorical entries, the continuous slots' pre-squash
values and log-Jacobian terms) are computed once per update, and each
minibatch gathers its rows of them, with its other keys, into buffers
allocated once per update.  The losses, which no gradient needs, are
computed for the last minibatch only, whose report ``ppo_update`` returns.

A ``Trajectory`` holds one policy's episode as (epochs, entities) arrays, the
layout of a (steps, envs) rollout buffer, and ``gae`` runs over all its
entities at once.

A checkpoint is JSON: each net's layout and parameters, the PPO config, the
generator state and a meta dict.  ``load_checkpoint`` returns each net's
parameters as plain arrays; the agent that loads them checks them against
its own nets and writes them into their flat vectors.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import PpoConfig

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))
# keep arctanh finite when inverting squashed actions at the box edge
_SQUASH_EPS = 1e-12
# global gradient-norm clip of every PPO minibatch step
MAX_GRAD_NORM = 0.5
# Adam's moment decays and denominator floor
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
# flat buffers start every parameter, gradient and hidden buffer on a 64-byte
# boundary (8 floats): a decision-time forward measured ~10% slower with its
# weights off that boundary
_ALIGN = 8


def _aligned_zeros(n: int) -> np.ndarray:
    """A zeroed float vector of length ``n`` whose data starts on a 64-byte boundary."""
    raw = np.zeros(n + _ALIGN - 1)
    start = (-(raw.ctypes.data // 8)) % _ALIGN
    return raw[start : start + n]


def _padded(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


@dataclass(frozen=True)
class ActionSchema:
    """Factorized action layout: categorical slot arities + continuous boxes."""

    cat_arities: tuple[int, ...] = ()
    cont_bounds: tuple[tuple[float, float], ...] = ()

    @property
    def num_cat(self) -> int:
        return len(self.cat_arities)

    @property
    def num_cont(self) -> int:
        return len(self.cont_bounds)

    @cached_property
    def num_logits(self) -> int:
        return int(sum(self.cat_arities))

    # The schema is immutable, so everything derived from it is computed once
    # per schema rather than on every forward/sample/log-prob call.

    @cached_property
    def _runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """Contiguous equal-arity slot runs: (slot_start, n_slots, arity, logit_start)."""
        out = []
        slot = logit = 0
        arities = self.cat_arities
        while slot < len(arities):
            arity = arities[slot]
            n = 1
            while slot + n < len(arities) and arities[slot + n] == arity:
                n += 1
            out.append((slot, n, arity, logit))
            slot += n
            logit += n * arity
        return tuple(out)

    @cached_property
    def _box(self) -> "_Box":
        bounds = np.asarray(self.cont_bounds, dtype=float).reshape(-1, 2)
        return _Box(bounds[:, 0], bounds[:, 1])


class _Box:
    """Continuous-slot bounds of a schema as read-only arrays."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        width = hi - lo
        live = width > 0  # zero-width slots are pinned to a constant
        safe_width = np.where(live, width, 1.0)
        self.lo, self.width, self.live = lo, width, live
        self.safe_width = safe_width
        self.log_half_width = np.log(safe_width / 2.0)
        for arr in (lo, width, live, safe_width, self.log_half_width):
            arr.setflags(write=False)


def _clip(x, lo: float, hi: float):
    """np.clip(x, lo, hi) bit for bit (signed zeros included) for scalar
    bounds, without np.clip's wrapper overhead."""
    return np.minimum(hi, np.maximum(lo, x))


@dataclass
class DistParams:
    logits: np.ndarray  # (B, total_logits), or (S, B, total_logits) from a stacked forward
    mean: np.ndarray  # (B, C) or (S, B, C)
    log_std: np.ndarray  # (C,) already clamped
    value: np.ndarray  # (B,) or (S, B)
    schema: ActionSchema


@dataclass
class ActionBatch:
    cat: np.ndarray  # (B, num_cat) int; a stacked forward's S·B rows in entity order
    cont: np.ndarray  # (B, C) squashed values inside their boxes


class PolicyNet:
    """Tanh MLP trunk with categorical/continuous/value heads."""

    def __init__(
        self,
        input_dim: int,
        schema: ActionSchema,
        hidden: tuple[int, int] = (128, 128),
        *,
        rng: np.random.Generator,
    ):
        self.input_dim = input_dim
        self.schema = schema
        self.hidden = tuple(hidden)
        h0, h1 = self.hidden
        L, C = schema.num_logits, schema.num_cont
        self.shapes: dict[str, tuple[int, ...]] = {
            "W0": (input_dim, h0),
            "b0": (h0,),
            "W1": (h0, h1),
            "b1": (h1,),
            "Wl": (h1, L),
            "bl": (L,),
            "Wm": (h1, C),
            "bm": (C,),
            "log_std": (C,),
            "Wv": (h1, 1),
            "bv": (1,),
        }
        self._offsets: dict[str, int] = {}
        size = 0
        for key, shape in self.shapes.items():
            self._offsets[key] = size
            size += _padded(math.prod(shape))
        # every parameter is a view into this one vector, which Adam updates in
        # place; the padding between them stays zero
        self.flat = _aligned_zeros(size)
        self.params: dict[str, np.ndarray] = self.views(self.flat)
        for key in ("W0", "W1", "Wl", "Wm", "Wv"):  # drawn in this order
            # the bits and generator state of rng.normal(0, 1/sqrt(fan_in), shape)
            weights = rng.standard_normal(out=self.params[key])
            weights *= 1.0 / np.sqrt(max(self.shapes[key][0], 1))
        self.params["log_std"][...] = -0.5

    def views(self, flat: np.ndarray, order=None) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like ``flat``, keyed in ``order``
        (default: the layout order)."""
        out = {}
        for key in self.shapes if order is None else order:
            start, shape = self._offsets[key], self.shapes[key]
            out[key] = flat[start : start + math.prod(shape)].reshape(shape)
        return out


def forward(net: PolicyNet, obs: np.ndarray) -> DistParams:
    """Distribution parameters and value for a float (B, D) batch of
    observations, or an (S, B, D) stack of them; stacks only, no single row.

    Observations of shape (S, B, D) stack S independent batches: numpy runs
    each one through its own matrix products, so every batch gets exactly
    the numbers a separate forward of that batch would give.  That equality
    rests on how numpy's matmul hands a stack to BLAS (one call per batch),
    not on a documented guarantee; it holds with numpy 2.4 and OpenBLAS 0.3,
    and ``test_stacked_forward_matches_separate_forwards_bitwise`` fails on
    a numpy or BLAS build where it does not.
    """
    return _forward(net, obs)[0]


def _tanh_layer(
    x: np.ndarray, W: np.ndarray, b: np.ndarray, ws: "_Workspace | None", i: int
) -> np.ndarray:
    """tanh(x @ W + b): a new array without a workspace, else written into the
    workspace's buffer ``i`` by the same operations in the same order."""
    if ws is None:
        return np.tanh(x @ W + b)
    out = np.matmul(x, W, out=ws.take(i, x.shape[0], W.shape[1]))
    out += b
    return np.tanh(out, out=out)


def _forward(
    net: PolicyNet, X: np.ndarray, ws: "_Workspace | None" = None
) -> tuple[DistParams, np.ndarray, np.ndarray]:
    """The forward pass, also returning the two hidden activations for backprop.

    With a workspace (training, 2-D ``X``) the activations are written into
    its buffers; without one (every decision) they are new arrays."""
    p = net.params
    a1 = _tanh_layer(X, p["W0"], p["b0"], ws, 0)
    a2 = _tanh_layer(a1, p["W1"], p["b1"], ws, 1)
    logits = a2 @ p["Wl"] + p["bl"]
    mean = a2 @ p["Wm"] + p["bm"]
    log_std = _clip(p["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    value = (a2 @ p["Wv"] + p["bv"])[..., 0]
    params = DistParams(logits=logits, mean=mean, log_std=log_std, value=value, schema=net.schema)
    return params, a1, a2


# numpy reduces a short last axis slowly (~45 µs for the max over a (200, 4,
# 2) array, ~3 µs as a fold of np.maximum), so a run's arity axis is folded by
# hand.  Below 8 entries numpy reduces left to right (a sum from +0.0), as the
# folds do; from 8 on it works in SIMD lanes, so a longer axis is left to it.
_FOLD_BELOW = 8


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` bit for bit."""
    if x.shape[-1] >= _FOLD_BELOW:
        return x.max(axis=-1)
    acc = x[..., 0]
    for i in range(1, x.shape[-1]):
        acc = np.maximum(acc, x[..., i])
    return acc


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` bit for bit."""
    if x.shape[-1] >= _FOLD_BELOW:
        return x.sum(axis=-1)
    acc = x[..., 0] + 0.0
    for i in range(1, x.shape[-1]):
        acc += x[..., i]
    return acc


def _log_softmax_runs(params: DistParams) -> list[tuple[int, int, int, np.ndarray]]:
    """(slot_start, n_slots, logit_start, logp) per categorical run, logp the
    run's (B, n_slots, arity) log-softmax."""
    logits = params.logits
    B = logits.shape[0]
    out = []
    for slot_start, n, arity, logit_start in params.schema._runs:
        lg = logits[:, logit_start : logit_start + n * arity].reshape(B, n, arity)
        m = _max_last(lg)[..., None]
        lse = m + np.log(_sum_last(np.exp(lg - m)))[..., None]
        out.append((slot_start, n, logit_start, lg - lse))
    return out


def _probs_and_entropy(logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A run's probabilities and per-slot entropy (B, n, 1), from its log-softmax."""
    prob = np.exp(logp)
    return prob, -_sum_last(prob * logp)[..., None]


def _pre_squash(schema: ActionSchema, cont: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box actions' pre-squash values z and their squash's log-Jacobian term."""
    box = schema._box
    # zero-width bounds pin the slot to a constant; keep u finite there
    u = np.where(box.live, 2.0 * (cont - box.lo) / box.safe_width - 1.0, 0.0)
    u = _clip(u, -1.0 + _SQUASH_EPS, 1.0 - _SQUASH_EPS)
    return np.arctanh(u), box.log_half_width + np.log1p(-u * u)


def action_constants(schema: ActionSchema, cat: np.ndarray, cont: np.ndarray) -> dict[str, np.ndarray]:
    """The per-row values of a (B, ·) batch of actions that no weight enters:
    ``onehot``, a (B, num_logits) bool array that is True at each slot's
    taken entry (a run's columns read as its (B, n, arity) block); and, with
    continuous slots, ``z``, their pre-squash values (B, C), and ``jac``,
    their squash's log-Jacobian term (B, C).  ``loss_and_grads`` reads them
    from its batch, and ``ppo_update`` computes them once per update."""
    B = cat.shape[0]
    onehot = np.empty((B, schema.num_logits), dtype=bool)
    for slot_start, n, arity, logit_start in schema._runs:
        block = onehot[:, logit_start : logit_start + n * arity].reshape(B, n, arity)
        np.equal(cat[:, slot_start : slot_start + n, None], np.arange(arity), out=block)
    if not schema.cont_bounds:
        return {"onehot": onehot}
    z, jac = _pre_squash(schema, cont)
    return {"onehot": onehot, "z": z, "jac": jac}


def _picked(logp: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Summed log-probability of one run's chosen entries: (B, n, arity), (B, n) -> (B,)."""
    B, n = acts.shape
    return np.add.reduce(logp[np.arange(B)[:, None], np.arange(n), acts], axis=1)


def _cont_log_prob(
    params: DistParams, z: np.ndarray, jac: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-density per row of squashed continuous actions given as their
    pre-squash ``z`` and log-Jacobian ``jac``; also returns the standardized
    ``zc = (z - mean) / std`` and ``std``, which the backward reuses."""
    std = np.exp(params.log_std)
    zc = (z - params.mean) / std
    gauss = -0.5 * zc**2 - params.log_std - 0.5 * _LOG_2PI
    # pinned slots are deterministic and carry no density
    return np.add.reduce((gauss - jac) * params.schema._box.live, axis=1), zc, std


def _cont_entropy(params: DistParams) -> float:
    """Pre-squash gaussian entropy of the live continuous slots (the same for every row)."""
    box = params.schema._box
    return np.add.reduce((params.log_std + 0.5 * (1.0 + _LOG_2PI) + box.log_half_width) * box.live)


def log_prob(params: DistParams, action: ActionBatch) -> np.ndarray:
    """Joint log-probability of a (batch of) factorized action(s)."""
    lp = np.zeros(params.logits.shape[0])
    for slot_start, n, _, logp in _log_softmax_runs(params):
        lp += _picked(logp, action.cat[:, slot_start : slot_start + n])
    if params.schema.cont_bounds:
        lp += _cont_log_prob(params, *_pre_squash(params.schema, action.cont))[0]
    return lp


def sample_action(
    params: DistParams, rng: np.random.Generator
) -> tuple[ActionBatch, np.ndarray]:
    """Draw actions for every row of a (B, ·) batch or an (S, B, ·) stack of
    batches, as (S·B, ·) arrays in entity order (row ``i`` of batch ``s`` is
    entity ``s * B + i``); the returned log-prob matches log_prob().

    Each batch makes the draws a call on that batch alone would, in the same
    order: one uniform draw for all its logits, then, with continuous slots,
    one standard-normal draw for its means.  Everything after the draws is
    row-wise, so it runs once over all S·B rows and gives each row the bits
    of the per-batch call, and the generator ends in the same state.
    """
    schema = params.schema
    lead = params.logits.shape[:-1]
    S, B = lead if len(lead) == 2 else (1, lead[0])
    L, C = schema.num_logits, schema.num_cont
    rows = S * B
    u = np.empty((S, B * L))
    eps = np.empty((S, B, C))
    for s in range(S):
        u[s] = rng.uniform(1e-12, 1.0, size=B * L)
        if C:
            rng.standard_normal(out=eps[s])
    logits, mean = params.logits.reshape(rows, L), params.mean.reshape(rows, C)
    # A batch's uniforms hold each run's (B, n, arity) block in turn.  The Gumbel
    # noise is -log(-log(u)); lg + noise is written as the exactly equal lg - log(-log(u)).
    neg_gumbel = np.log(-np.log(u))
    cat = np.empty((rows, schema.num_cat), dtype=np.int64)
    start = 0
    for slot_start, n, arity, logit_start in schema._runs:
        size = B * n * arity
        lg = logits[:, logit_start : logit_start + n * arity].reshape(rows, n, arity)
        noise = neg_gumbel[:, start : start + size].reshape(rows, n, arity)
        cat[:, slot_start : slot_start + n] = (lg - noise).argmax(axis=-1)
        start += size
    box = schema._box  # with no continuous slots, cont is (rows, 0)
    z = mean + np.exp(params.log_std) * eps.reshape(rows, C)
    action = ActionBatch(cat=cat, cont=box.lo + box.width * (np.tanh(z) + 1.0) / 2.0)
    flat = DistParams(logits, mean, params.log_std, params.value.reshape(rows), schema)
    return action, log_prob(flat, action)


def mode_slots(params: DistParams, start: int = 0) -> np.ndarray:
    """Greedy (argmax) choices of the categorical slots from ``start`` on,
    shape (..., num_cat - start) for logits of shape (..., total_logits); a
    stacked forward's (S, B, ·) gives each batch the choices of a call on
    that batch.

    ``mode_action`` decodes every slot; ``start`` serves sadrl's greedy
    step, which decodes only the slots the env takes at that step."""
    schema = params.schema
    lead = params.logits.shape[:-1]
    out = np.empty(lead + (schema.num_cat - start,), dtype=np.int64)
    for slot_start, n, arity, logit_start in schema._runs:
        lo = max(start, slot_start)
        if lo < slot_start + n:
            first = logit_start + (lo - slot_start) * arity
            width = slot_start + n - lo
            lg = params.logits[..., first : first + width * arity].reshape(lead + (width, arity))
            out[..., lo - start : lo - start + width] = lg.argmax(axis=-1)
    return out


def mode_cont(params: DistParams) -> np.ndarray:
    """Greedy continuous values: the squashed mean, shape (..., C) like the mean."""
    box = params.schema._box
    return box.lo + box.width * (np.tanh(params.mean) + 1.0) / 2.0


def mode_action(params: DistParams) -> ActionBatch:
    """Greedy action: categorical argmax, continuous squashed mean, for every
    row of a (B, ·) batch or an (S, B, ·) stack of batches, as (S·B, ·)
    arrays in entity order, the layout of ``sample_action``."""
    cat, cont = mode_slots(params), mode_cont(params)
    rows = params.value.size  # named: a zero-width (S, B, 0) has no -1 to infer
    return ActionBatch(cat=cat.reshape(rows, cat.shape[-1]), cont=cont.reshape(rows, cont.shape[-1]))


# -- advantage estimation ------------------------------------------------------


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and returns along the first axis.

    ``rewards`` and ``values`` are (T, ...): trailing axes are independent
    sequences sharing the (T,) ``dones``, and each column gets the bits of
    the 1-D call on it.  The value after the last step is 0: every
    trajectory ends its episode."""
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values, dtype=float)
    d = np.asarray(dones, dtype=float)
    adv = np.zeros(r.shape)
    next_adv = 0.0
    next_value = 0.0
    for t in range(len(r) - 1, -1, -1):
        not_done = 1.0 - d[t]
        delta = r[t] + gamma * next_value * not_done - v[t]
        next_adv = delta + gamma * lam * not_done * next_adv
        adv[t] = next_adv
        next_value = v[t]
    return adv, adv + v


@dataclass
class Trajectory:
    """One policy's episode of decisions, epoch by epoch.

    A tier's E entities decide together, so each epoch is one ``add`` of
    (E, ·) rows (entity order), and each env step between two epochs one
    ``reward`` of the (E,) rewards, which the latest epoch collects.
    """

    obs: list = field(default_factory=list)  # per epoch, (E, D)
    cat: list = field(default_factory=list)  # (E, num_cat) int
    cont: list = field(default_factory=list)  # (E, C)
    logp: list = field(default_factory=list)  # (E,)
    value: list = field(default_factory=list)  # (E,)
    rewards: list = field(default_factory=list)  # per epoch, one (E,) per step

    def add(self, obs, cat, cont, logp, value) -> None:
        self.obs.append(obs)
        self.cat.append(cat)
        self.cont.append(cont)
        self.logp.append(logp)
        self.value.append(value)
        self.rewards.append([])

    def reward(self, r) -> None:
        """One step's (E,) rewards, credited to the latest epoch (none before the first)."""
        if self.rewards:
            self.rewards[-1].append(r)

    def __len__(self) -> int:
        return len(self.obs)

    def finalize(self, gamma: float, lam: float) -> dict:
        """Flat training arrays, entity-major (entity 0's epochs, then entity
        1's, ...).  An epoch's reward is the mean of its steps' rewards, the
        last epoch ends the episode, and GAE runs over all entities at once."""
        K, E = len(self), len(self.logp[0])
        # sum / count along a contiguous last axis is np.mean of each entity's
        # interval bit for bit; a reduce over the first axis is not pairwise
        reward = np.stack(
            [np.add.reduce(np.stack(rs, axis=-1), axis=-1) / len(rs) for rs in self.rewards]
        )
        done = np.zeros(K)
        done[-1] = 1.0
        adv, ret = gae(reward, np.stack(self.value), done, gamma, lam)

        def rows(epochs, dtype=float) -> np.ndarray:
            x = np.asarray(epochs, dtype=dtype)  # (K, E, ...)
            # the row count is named: a zero-width (K, E, 0) has no -1 to infer
            return x.swapaxes(0, 1).reshape(K * E, *x.shape[2:])

        return {
            "obs": rows(self.obs),
            "cat": rows(self.cat, np.int64),
            "cont": rows(self.cont),
            "logp": rows(self.logp),
            "adv": rows(adv),
            "ret": rows(ret),
        }


# -- loss and gradients ---------------------------------------------------------


@dataclass
class LossReport:
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    # CleanRL's estimator of KL(old || new), mean((ratio - 1) - log ratio)
    approx_kl: float
    # 1 - var(ret - value) / var(ret); NaN where the returns do not vary
    explained_variance: float


# The order the gradients are computed in; the grad-norm clip sums their
# squares in this order, which fixes the bits of the norm.
_GRAD_ORDER = ("Wl", "bl", "Wm", "bm", "Wv", "bv", "log_std", "W1", "b1", "W0", "b0")


class _Workspace:
    """The training step's buffers, allocated once per ``ppo_update`` and
    reused by each of its minibatches.

    Four (rows, hidden) activation buffers for the forward and backward, and
    one flat gradient vector laid out like the net's ``flat``, with its named
    views in ``grads``.  The grad-norm clip's and Adam's scratch vectors are
    the first two activation buffers, which the step's backward is done with
    by then.  All of it is one block: freed as one chunk, it is reused by the
    next update's block rather than handed back to the system and faulted in
    again.
    """

    def __init__(self, net: PolicyNet, rows: int):
        n = net.flat.size
        size = _padded(max(rows * max(net.hidden), n))
        block = _aligned_zeros(4 * size + n)
        self._bufs = [block[i * size : (i + 1) * size] for i in range(4)]
        self.grad = block[4 * size :]
        self.grads = net.views(self.grad, _GRAD_ORDER)
        self.scratch = (self._bufs[0][:n], self._bufs[1][:n])

    def take(self, i: int, rows: int, cols: int) -> np.ndarray:
        """Buffer ``i`` as a contiguous (rows, cols) array, rows up to the workspace's."""
        return self._bufs[i][: rows * cols].reshape(rows, cols)


def loss_and_grads(
    net: PolicyNet, batch: dict, cfg: PpoConfig, ws: _Workspace | None = None, report: bool = True
) -> tuple[LossReport | None, dict[str, np.ndarray]]:
    """Clipped-surrogate PPO loss and analytic gradients for one minibatch.

    batch keys: obs (B,D), cat (B,S), logp (B,), adv (B,), ret (B,), and the
    ``action_constants`` of its actions: onehot (B,L), and with continuous
    slots z (B,C) and jac (B,C).  A minibatch step does only the work that
    depends on the weights.

    The grads are views into a flat gradient vector laid out like the net's
    ``flat``: the workspace's ``grad``, which the next call with that
    workspace overwrites, or a new one when no workspace is given.  The
    hidden activations and their gradients live in the workspace's buffers
    (the module docstring says why the bits are unchanged).  With ``report``
    false the losses, which no gradient needs, are not computed and the
    report is ``None``; ``ppo_update`` asks for the report of its last
    minibatch only.
    """
    p = net.params
    schema = net.schema
    X = batch["obs"]
    B = X.shape[0]
    adv = batch["adv"]
    ret = batch["ret"]
    cat, onehot = batch["cat"], batch["onehot"]

    # forward pass, keeping activations for the backward pass
    if ws is None:
        ws = _Workspace(net, B)
    params, a1, a2 = _forward(net, X, ws)
    logits, mean, log_std, value = params.logits, params.mean, params.log_std, params.value

    # each categorical run's log-softmax, probabilities and per-slot entropy
    # serve the log-prob, the entropy and the gradient alike
    runs = []
    logp_new = np.zeros(B)
    ent = np.zeros(B) if report else None
    for slot_start, n, logit_start, logp_slot in _log_softmax_runs(params):
        width = n * logp_slot.shape[2]
        taken = onehot[:, logit_start : logit_start + width].reshape(logp_slot.shape)
        prob, h_slot = _probs_and_entropy(logp_slot)
        logp_new += _picked(logp_slot, cat[:, slot_start : slot_start + n])
        if report:
            ent += np.add.reduce(h_slot[..., 0], axis=-1)
        runs.append((logit_start, width, taken, logp_slot, prob, h_slot))
    if schema.cont_bounds:
        lp_cont, zc, std = _cont_log_prob(params, batch["z"], batch["jac"])
        logp_new += lp_cont

    log_ratio = logp_new - batch["logp"]
    ratio = np.exp(log_ratio)
    unclipped = ratio * adv
    clipped = _clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    # d loss / d logp_new; zero where the clipped branch saturates
    use_unclipped = unclipped <= clipped
    g_lp = np.where(use_unclipped, -adv * ratio / B, 0.0)
    value_err = value - ret

    # every run writes its columns, so d_logits needs no zero fill
    d_logits = np.empty(logits.shape)
    for logit_start, width, taken, logp_slot, prob, h_slot in runs:
        # g * (onehot - p), then the entropy bonus d(-c*mean(H))/dlogits =
        # (c/B) * p * (logp + H_slot), over prob and logp_slot, which the
        # log-prob is done with
        d_slot = d_logits[:, logit_start : logit_start + width].reshape(prob.shape)
        np.subtract(taken, prob, out=d_slot)
        d_slot *= g_lp[:, None, None]
        prob *= cfg.entropy_coef / B
        prob *= np.add(logp_slot, h_slot, out=logp_slot)
        d_slot += prob

    if schema.cont_bounds:
        d_mean = g_lp[:, None] * zc / std
        d_log_std = np.add.reduce(g_lp[:, None] * (zc * zc - 1.0), axis=0)
        # gaussian entropy depends on log_std alone
        d_log_std += -cfg.entropy_coef
        # clamp gate: no gradient where the raw parameter sits outside the clamp
        raw = p["log_std"]
        d_log_std *= (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
    else:
        d_mean, d_log_std = mean, log_std  # (B, 0) and (0,): nothing to write

    d_value = cfg.vf_coef * 2.0 * value_err / B

    h0, h1 = net.hidden
    grads = ws.grads
    np.matmul(a2.T, d_logits, out=grads["Wl"])
    np.add.reduce(d_logits, axis=0, out=grads["bl"])
    np.matmul(a2.T, d_mean, out=grads["Wm"])
    np.add.reduce(d_mean, axis=0, out=grads["bm"])
    np.matmul(a2.T, d_value[:, None], out=grads["Wv"])
    np.add.reduce(d_value, axis=0, keepdims=True, out=grads["bv"])
    grads["log_std"][...] = d_log_std

    # da2 = d_logits @ Wl.T + d_mean @ Wm.T + d_value[:, None] @ Wv.T, added left to right
    da2 = np.matmul(d_logits, p["Wl"].T, out=ws.take(2, B, h1))
    term = ws.take(3, B, h1)
    da2 += np.matmul(d_mean, p["Wm"].T, out=term)
    da2 += np.matmul(d_value[:, None], p["Wv"].T, out=term)
    # dz2 = da2 * (1 - a2 * a2), over a2, which the head gradients no longer need
    dz2 = np.multiply(a2, a2, out=a2)
    np.subtract(1.0, dz2, out=dz2)
    dz2 *= da2
    np.matmul(a1.T, dz2, out=grads["W1"])
    np.add.reduce(dz2, axis=0, out=grads["b1"])
    da1 = np.matmul(dz2, p["W1"].T, out=ws.take(2, B, h0))
    dz1 = np.multiply(a1, a1, out=a1)
    np.subtract(1.0, dz1, out=dz1)
    dz1 *= da1
    np.matmul(X.T, dz1, out=grads["W0"])
    np.add.reduce(dz1, axis=0, out=grads["b0"])

    if not report:
        return None, grads
    # sum / B is ndarray.mean bit for bit, without the wrapper overhead
    policy_loss = -(np.add.reduce(np.minimum(unclipped, clipped)) / B)
    value_loss = np.add.reduce(value_err**2) / B
    if schema.cont_bounds:
        ent += _cont_entropy(params)
    entropy_mean = np.add.reduce(ent) / B
    loss = policy_loss + cfg.vf_coef * value_loss - cfg.entropy_coef * entropy_mean
    var_ret = ret.var()
    out = LossReport(
        loss=float(loss),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        entropy=float(entropy_mean),
        clip_fraction=float((~use_unclipped).mean()),
        approx_kl=float(np.add.reduce((ratio - 1.0) - log_ratio) / B),
        explained_variance=float(1.0 - (ret - value).var() / var_ret) if var_ret else math.nan,
    )
    return out, grads


def clip_grad_norm(
    grads: dict[str, np.ndarray], flat: np.ndarray, max_norm: float, scratch: np.ndarray
) -> float:
    """Scale the gradient vector ``flat``, whose named views are ``grads``, to
    a global norm of at most ``max_norm``; returns the norm before scaling.

    The squares are summed key by key in ``grads``' order, which fixes the
    bits of the norm; each key is squared into ``scratch`` (a vector at least
    ``flat``'s size) in its own shape.  The scaling is one multiply over the
    whole vector."""
    squares = 0.0
    for g in grads.values():
        square = np.multiply(g, g, out=scratch[: g.size].reshape(g.shape))
        squares += float(np.add.reduce(square, axis=None))
    total = float(np.sqrt(squares))
    if total > max_norm and total > 0.0:
        flat *= max_norm / total
    return total


class Adam:
    """First-order adaptive optimizer with the standard moment decays
    (``ADAM_B1``, ``ADAM_B2``, ``ADAM_EPS``), over a net's flat parameter
    vector.  The moments are flat vectors, updated in place in the operation
    order of ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr * (m/b1t) / (sqrt(v/b2t) + eps)``.
    """

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        # one allocation for both, left untouched until the first step: building
        # an agent writes no moment pages
        self.m, self.v = np.zeros((2, params.size))

    def step(
        self, params: np.ndarray, grads: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """One step of the flat ``params`` along the flat ``grads``; ``scratch``
        is two vectors of the same size to work in."""
        self.t += 1
        b1t = 1.0 - ADAM_B1**self.t
        b2t = 1.0 - ADAM_B2**self.t
        s1, s2 = scratch
        m, v = self.m, self.v
        m *= ADAM_B1
        m += np.multiply(grads, 1.0 - ADAM_B1, out=s1)
        v *= ADAM_B2
        sq = np.multiply(grads, grads, out=s1)
        sq *= 1.0 - ADAM_B2
        v += sq
        step = np.divide(m, b1t, out=s1)
        step *= self.lr
        denom = np.sqrt(np.divide(v, b2t, out=s2), out=s2)
        denom += ADAM_EPS
        step /= denom
        params -= step


@dataclass
class UpdateReport(LossReport):
    """The last minibatch's ``LossReport``, its pre-clip gradient norm, and
    the number of minibatch steps the update took."""

    grad_norm: float
    grad_steps: int


def ppo_update(
    net: PolicyNet,
    batch: dict,
    cfg: PpoConfig,
    rng: np.random.Generator,
    optimizer: Adam,
) -> UpdateReport:
    """Run sgd_iters epochs of shuffled clipped-surrogate minibatch updates.

    Advantages are normalized once over the whole batch, and the actions'
    ``action_constants`` are computed once over it.  Each minibatch gathers
    its rows of every key into buffers allocated once per update.  The
    minibatch size shrinks to the batch size when the batch is smaller (high
    tiers accumulate few decisions per episode).  ``optimizer`` is the net's
    Adam, whose moments carry over from one update to the next.
    """
    B = batch["obs"].shape[0]
    if B < 1:
        raise ValueError("ppo_update needs a non-empty batch")
    adv = batch["adv"]
    rows = {
        "obs": batch["obs"],
        "cat": batch["cat"],
        "logp": batch["logp"],
        "adv": (adv - adv.mean()) / (adv.std() + 1e-8),
        "ret": batch["ret"],
        **action_constants(net.schema, batch["cat"], batch["cont"]),
    }

    mb = min(cfg.minibatch_size, B)
    # every minibatch step works in these, so none allocates a (mb, hidden) array
    ws = _Workspace(net, mb)
    gathered = {k: np.empty((mb,) + v.shape[1:], v.dtype) for k, v in rows.items()}
    # the last minibatch of a batch that mb does not divide uses the leading rows
    tail = B % mb
    short = {k: v[:tail] for k, v in gathered.items()}
    steps = cfg.sgd_iters * -(-B // mb)
    step = 0
    for _ in range(cfg.sgd_iters):
        perm = rng.permutation(B)
        for start in range(0, B, mb):
            idx = perm[start : start + mb]
            minibatch = gathered if idx.size == mb else short
            for key, v in rows.items():
                # mode="clip" writes straight into out; "raise" buffers the copy
                v.take(idx, axis=0, out=minibatch[key], mode="clip")
            step += 1
            report, grads = loss_and_grads(net, minibatch, cfg, ws, report=step == steps)
            norm = clip_grad_norm(grads, ws.grad, MAX_GRAD_NORM, ws.scratch[0])
            optimizer.step(net.flat, ws.grad, ws.scratch)
    return UpdateReport(**vars(report), grad_norm=norm, grad_steps=steps)


def grad_check(net: PolicyNet, loss_fn, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(net) -> (loss, grads)`` must be deterministic in the params.
    """
    _, grads = loss_fn(net)
    worst = 0.0
    for key, g_analytic in grads.items():
        param = net.params[key]
        flat = param.ravel()
        g_flat = np.asarray(g_analytic).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_fn(net)[0]
            flat[i] = orig - h
            minus = loss_fn(net)[0]
            flat[i] = orig
            g_num = (plus - minus) / (2.0 * h)
            denom = max(abs(g_flat[i]), abs(g_num), 1e-6)
            worst = max(worst, abs(g_flat[i] - g_num) / denom)
    return worst


# -- checkpointing -----------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    kind: str,
    config_hash: str,
    nets: dict[str, PolicyNet],
    ppo_cfg: PpoConfig,
    rng: np.random.Generator,
    meta: dict | None = None,
) -> None:
    """Write the checkpoint to a temporary file beside ``path``, then move it
    into place: a save that fails leaves any earlier file at ``path`` as it
    was."""
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "config_hash": config_hash,
        "ppo": {k: getattr(ppo_cfg, k) for k in vars(ppo_cfg)},
        "rng_state": rng.bit_generator.state,
        "meta": meta or {},
        "nets": {
            name: {
                "input_dim": n.input_dim,
                "hidden": list(n.hidden),
                "cat_arities": list(n.schema.cat_arities),
                "cont_bounds": [list(b) for b in n.schema.cont_bounds],
                "params": {k: v.tolist() for k, v in n.params.items()},
            }
            for name, n in nets.items()
        },
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(blob, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict:
    """A checkpoint's fields, each net's parameters as float arrays keyed as
    saved (``nets[name][key]``), and its generator in the saved state.  The
    saved PPO settings are not read back: ``config_hash`` covers them."""
    with open(path) as fh:
        blob = json.load(fh)
    version = blob.get("format_version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version}")
    for key in ("kind", "config_hash", "nets", "rng_state"):
        if key not in blob:
            raise ValueError(f"checkpoint {path} has no {key!r} field")
    nets = {
        name: {key: np.asarray(value, dtype=float) for key, value in spec["params"].items()}
        for name, spec in blob["nets"].items()
    }
    rng = np.random.default_rng()
    rng.bit_generator.state = blob["rng_state"]
    return {
        "kind": blob["kind"],
        "config_hash": blob["config_hash"],
        "nets": nets,
        "rng": rng,
        "meta": blob.get("meta", {}),
    }
