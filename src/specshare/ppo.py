"""Self-contained PPO in numpy: policy network, GAE, clipped update, Adam.

The policy is a two-hidden-layer tanh MLP with a factorized action head:
a block of categorical slots (independent softmaxes, possibly different
arities) and a block of box-bounded continuous slots (state-dependent mean,
free log-std, tanh squash with the exact log-prob Jacobian correction).
Gradients are hand-derived and verified against central finite differences
by ``grad_check``.
"""

from __future__ import annotations

import json
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

    def runs(self) -> list[tuple[int, int, int, int]]:
        """Contiguous equal-arity slot runs: (slot_start, n_slots, arity, logit_start)."""
        return list(self._runs)

    # The schema is immutable, so everything derived from it is computed once
    # per schema rather than on every forward/sample/log-prob call.

    @cached_property
    def _runs(self) -> tuple[tuple[int, int, int, int], ...]:
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
    logits: np.ndarray  # (B, total_logits)
    mean: np.ndarray  # (B, C)
    log_std: np.ndarray  # (C,) already clamped
    value: np.ndarray  # (B,)
    schema: ActionSchema

    def __getitem__(self, index) -> "DistParams":
        """One batch of a stacked forward, in the (B, ...) layout the samplers
        take (log_std is shared)."""
        return DistParams(self.logits[index], self.mean[index], self.log_std, self.value[index], self.schema)


@dataclass
class ActionBatch:
    cat: np.ndarray  # (B, S) int
    cont: np.ndarray  # (B, C) squashed values inside their boxes


class PolicyNet:
    """Tanh MLP trunk with categorical/continuous/value heads."""

    def __init__(
        self,
        input_dim: int,
        schema: ActionSchema,
        hidden: tuple[int, int] = (128, 128),
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.schema = schema
        self.hidden = tuple(hidden)
        h0, h1 = self.hidden
        L, C = schema.num_logits, schema.num_cont

        def init(fan_in, fan_out):
            return rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), size=(fan_in, fan_out))

        self.params: dict[str, np.ndarray] = {
            "W0": init(input_dim, h0),
            "b0": np.zeros(h0),
            "W1": init(h0, h1),
            "b1": np.zeros(h1),
            "Wl": init(h1, L),
            "bl": np.zeros(L),
            "Wm": init(h1, C),
            "bm": np.zeros(C),
            "log_std": np.full(C, -0.5),
            "Wv": init(h1, 1),
            "bv": np.zeros(1),
        }


def forward(net: PolicyNet, obs: np.ndarray) -> DistParams:
    """Distribution parameters and value for a batch (or single row) of observations.

    Observations of shape (S, B, D) stack S independent batches: numpy runs
    each one through its own matrix products, so every batch gets exactly
    the numbers a separate forward of that batch would give.  That equality
    rests on how numpy's matmul hands a stack to BLAS (one call per batch),
    not on a documented guarantee; it holds with numpy 2.4 and OpenBLAS 0.3,
    and ``test_stacked_forward_matches_separate_forwards_bitwise`` fails on
    a numpy or BLAS build where it does not.
    """
    X = np.asarray(obs, dtype=float)
    if X.ndim < 2:
        X = X.reshape(1, -1)
    return _forward(net, X)[0]


def _forward(net: PolicyNet, X: np.ndarray) -> tuple[DistParams, np.ndarray, np.ndarray]:
    """The forward pass, also returning the two hidden activations for backprop."""
    p = net.params
    a1 = np.tanh(X @ p["W0"] + p["b0"])
    a2 = np.tanh(a1 @ p["W1"] + p["b1"])
    logits = a2 @ p["Wl"] + p["bl"]
    mean = a2 @ p["Wm"] + p["bm"]
    log_std = _clip(p["log_std"], LOG_STD_MIN, LOG_STD_MAX)
    value = (a2 @ p["Wv"] + p["bv"])[..., 0]
    params = DistParams(logits=logits, mean=mean, log_std=log_std, value=value, schema=net.schema)
    return params, a1, a2


def _unsquash(schema: ActionSchema, cont: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map box actions back to pre-squash gaussian space; returns (z, u)."""
    if schema.num_cont == 0:
        return np.zeros_like(cont), np.zeros_like(cont)
    box = schema._box
    # zero-width bounds pin the slot to a constant; keep u finite there
    u = np.where(box.live, 2.0 * (cont - box.lo) / box.safe_width - 1.0, 0.0)
    u = _clip(u, -1.0 + _SQUASH_EPS, 1.0 - _SQUASH_EPS)
    return np.arctanh(u), u


def _log_softmax_runs(params: DistParams) -> list[tuple[int, int, int, np.ndarray]]:
    """(slot_start, n_slots, logit_start, logp) per categorical run, logp the
    run's (B, n_slots, arity) log-softmax."""
    logits = params.logits
    B = logits.shape[0]
    out = []
    for slot_start, n, arity, logit_start in params.schema._runs:
        lg = logits[:, logit_start : logit_start + n * arity].reshape(B, n, arity)
        m = lg.max(axis=-1, keepdims=True)
        lse = m + np.log(np.exp(lg - m).sum(axis=-1, keepdims=True))
        out.append((slot_start, n, logit_start, lg - lse))
    return out


def _probs_and_entropy(logp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A run's probabilities and per-slot entropy (B, n, 1), from its log-softmax."""
    prob = np.exp(logp)
    return prob, -(prob * logp).sum(axis=-1, keepdims=True)


def _picked(logp: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Summed log-probability of one run's chosen entries: (B, n, arity), (B, n) -> (B,)."""
    B, n = acts.shape
    return logp[np.arange(B)[:, None], np.arange(n), acts].sum(axis=1)


def _cont_log_prob(params: DistParams, cont: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-density of squashed continuous actions per row, and their pre-squash values z."""
    box = params.schema._box
    z, u = _unsquash(params.schema, cont)
    std = np.exp(params.log_std)
    gauss = -0.5 * ((z - params.mean) / std) ** 2 - params.log_std - 0.5 * _LOG_2PI
    jac = box.log_half_width + np.log1p(-u * u)
    # pinned slots are deterministic and carry no density
    return ((gauss - jac) * box.live).sum(axis=1), z


def _cont_entropy(params: DistParams) -> float:
    """Pre-squash gaussian entropy of the live continuous slots (the same for every row)."""
    box = params.schema._box
    return ((params.log_std + 0.5 * (1.0 + _LOG_2PI) + box.log_half_width) * box.live).sum()


def _batch_size(params: DistParams) -> int:
    return params.logits.shape[0] if params.schema.num_cat else params.mean.shape[0]


def log_prob(params: DistParams, action: ActionBatch) -> np.ndarray:
    """Joint log-probability of a (batch of) factorized action(s)."""
    lp = np.zeros(_batch_size(params))
    for slot_start, n, _, logp in _log_softmax_runs(params):
        lp += _picked(logp, action.cat[:, slot_start : slot_start + n])
    if params.schema.num_cont:
        lp += _cont_log_prob(params, action.cont)[0]
    return lp


def entropy(params: DistParams) -> np.ndarray:
    """Policy entropy per batch row (gaussian part uses the pre-squash entropy)."""
    ent = np.zeros(_batch_size(params))
    for *_, logp in _log_softmax_runs(params):
        ent += _probs_and_entropy(logp)[1][..., 0].sum(axis=-1)
    if params.schema.num_cont:
        ent += _cont_entropy(params)
    return ent


def sample_action(
    params: DistParams, rng: np.random.Generator
) -> tuple[ActionBatch, np.ndarray]:
    """Draw actions for every batch row; the returned log-prob matches log_prob()."""
    schema = params.schema
    B = _batch_size(params)
    cat = np.zeros((B, schema.num_cat), dtype=np.int64)
    if schema.num_cat:
        # One uniform draw for every run yields the same numbers, and leaves
        # the generator in the same state, as one draw per run.  The Gumbel
        # noise is -log(-log(u)); lg + noise is written as the exactly equal
        # lg - log(-log(u)).
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


def mode_slots(params: DistParams, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Greedy (argmax) choices of categorical slots [start, stop), shape (B, stop - start)."""
    schema = params.schema
    stop = schema.num_cat if stop is None else stop
    B = params.logits.shape[0]
    out = np.empty((B, stop - start), dtype=np.int64)
    for slot_start, n, arity, logit_start in schema._runs:
        lo, hi = max(start, slot_start), min(stop, slot_start + n)
        if lo < hi:
            first = logit_start + (lo - slot_start) * arity
            lg = params.logits[:, first : first + (hi - lo) * arity].reshape(B, hi - lo, arity)
            out[:, lo - start : hi - start] = lg.argmax(axis=-1)
    return out


def mode_cont(params: DistParams) -> np.ndarray:
    """Greedy continuous values: the squashed mean, shape (B, C)."""
    box = params.schema._box
    return box.lo + box.width * (np.tanh(params.mean) + 1.0) / 2.0


def mode_action(params: DistParams) -> ActionBatch:
    """Greedy action: categorical argmax, continuous squashed mean."""
    return ActionBatch(cat=mode_slots(params), cont=mode_cont(params))


# -- advantage estimation ------------------------------------------------------


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and returns for one ordered sequence."""
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values, dtype=float)
    d = np.asarray(dones, dtype=float)
    T = len(r)
    adv = np.zeros(T)
    next_adv = 0.0
    next_value = bootstrap_value
    for t in range(T - 1, -1, -1):
        not_done = 1.0 - d[t]
        delta = r[t] + gamma * next_value * not_done - v[t]
        next_adv = delta + gamma * lam * not_done * next_adv
        adv[t] = next_adv
        next_value = v[t]
    return adv, adv + v


@dataclass
class Trajectory:
    """Raw per-entity decision sequence collected during rollouts."""

    obs: list = field(default_factory=list)
    cat: list = field(default_factory=list)
    cont: list = field(default_factory=list)
    logp: list = field(default_factory=list)
    value: list = field(default_factory=list)
    reward: list = field(default_factory=list)
    done: list = field(default_factory=list)

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
        """GAE over this sequence; returns flat training arrays."""
        adv, ret = gae(
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


# -- loss and gradients ---------------------------------------------------------


@dataclass
class LossReport:
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float


def loss_and_grads(
    net: PolicyNet, batch: dict, cfg: PpoConfig
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Clipped-surrogate PPO loss and analytic gradients for one minibatch.

    batch keys: obs (B,D), cat (B,S), cont (B,C), logp (B,), adv (B,), ret (B,).
    """
    p = net.params
    schema = net.schema
    X = batch["obs"]
    B = X.shape[0]
    adv = batch["adv"]
    ret = batch["ret"]
    logp_old = batch["logp"]
    cat, cont = batch["cat"], batch["cont"]

    # forward pass, keeping activations for the backward pass
    params, a1, a2 = _forward(net, X)
    logits, mean, log_std, value = params.logits, params.mean, params.log_std, params.value

    # each categorical run's log-softmax, probabilities and per-slot entropy
    # serve the log-prob, the entropy and the gradient alike
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
    # sum / B is ndarray.mean bit for bit, without the wrapper overhead
    policy_loss = -(np.minimum(unclipped, clipped).sum() / B)
    value_err = value - ret
    value_loss = (value_err**2).sum() / B
    entropy_mean = ent.sum() / B
    loss = policy_loss + cfg.vf_coef * value_loss - cfg.entropy_coef * entropy_mean

    # d loss / d logp_new; zero where the clipped branch saturates
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
        # entropy bonus: d(-c*mean(H))/dlogits = (c/B) * p * (logp + H_slot)
        d_slot += (cfg.entropy_coef / B) * prob * (logp_slot + h_slot)
        d_logits[:, logit_start : logit_start + n * arity] = d_slot.reshape(B, n * arity)

    if schema.num_cont:
        std = np.exp(log_std)
        zc = (z - mean) / std
        d_mean = g_lp[:, None] * zc / std
        d_log_std = (g_lp[:, None] * (zc * zc - 1.0)).sum(axis=0)
        # gaussian entropy depends on log_std alone
        d_log_std += -cfg.entropy_coef
        # clamp gate: no gradient where the raw parameter sits outside the clamp
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
    )
    return report, grads


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """First-order adaptive optimizer with standard moment decay."""

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


@dataclass
class UpdateReport:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_steps: int


def ppo_update(
    net: PolicyNet,
    batch: dict,
    cfg: PpoConfig,
    rng: np.random.Generator,
    optimizer: Adam | None = None,
    max_grad_norm: float = 0.5,
) -> UpdateReport:
    """Run sgd_iters epochs of shuffled clipped-surrogate minibatch updates.

    Advantages are normalized once over the whole batch.  The minibatch
    size shrinks to the batch size when the batch is smaller (high tiers
    accumulate few decisions per episode).
    """
    B = batch["obs"].shape[0]
    if B < 1:
        raise ValueError("ppo_update needs a non-empty batch")
    if optimizer is None:
        optimizer = Adam(net.params, cfg.learning_rate)
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
            report, grads = loss_and_grads(net, minibatch, cfg)
            clip_grad_norm(grads, max_grad_norm)
            optimizer.step(net.params, grads)
            last = report
            steps += 1
    return UpdateReport(
        policy_loss=last.policy_loss,
        value_loss=last.value_loss,
        entropy=last.entropy,
        clip_fraction=last.clip_fraction,
        grad_steps=steps,
    )


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
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_checkpoint(path: str | Path) -> dict:
    """Rebuild nets and RNG state from a checkpoint blob."""
    with open(path) as fh:
        blob = json.load(fh)
    version = blob.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version}")
    nets = {}
    for name, spec in blob["nets"].items():
        schema = ActionSchema(
            cat_arities=tuple(spec["cat_arities"]),
            cont_bounds=tuple(tuple(b) for b in spec["cont_bounds"]),
        )
        net = PolicyNet(spec["input_dim"], schema, hidden=tuple(spec["hidden"]))
        for k, v in spec["params"].items():
            net.params[k] = np.asarray(v, dtype=float).reshape(net.params[k].shape)
        nets[name] = net
    rng = np.random.default_rng()
    rng.bit_generator.state = blob["rng_state"]
    return {
        "kind": blob["kind"],
        "config_hash": blob["config_hash"],
        "ppo": PpoConfig(**blob["ppo"]),
        "nets": nets,
        "rng": rng,
        "meta": blob.get("meta", {}),
    }
