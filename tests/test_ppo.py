import cProfile
import copy
import json
import tracemalloc
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specshare.ppo
from reference_loops import (
    AdamLoop,
    EntityTrajectory,
    batch_of,
    clip_grad_norm_loop,
    loss_and_grads_loop,
    ppo_update_loop,
    sample_action_loop,
)
from specshare.config import PpoConfig
from specshare.ppo import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    MAX_GRAD_NORM,
    ActionBatch,
    ActionSchema,
    Adam,
    DistParams,
    PolicyNet,
    Trajectory,
    action_constants,
    clip_grad_norm,
    entropy,
    forward,
    gae,
    grad_check,
    load_checkpoint,
    log_prob,
    loss_and_grads,
    mode_action,
    mode_slots,
    ppo_update,
    sample_action,
    save_checkpoint,
    _log_softmax_runs,
    _max_last,
    _probs_and_entropy,
    _sum_last,
    _Workspace,
)


def param_vector(net: PolicyNet) -> np.ndarray:
    """Every parameter of ``net`` in one vector, keys in sorted order."""
    return np.concatenate([net.params[k].ravel() for k in sorted(net.params)])


def _schema():
    return ActionSchema(cat_arities=(3, 3, 2), cont_bounds=((0.0, 1.0), (-10.0, 10.0)))


def _net(seed=0, input_dim=5, hidden=(8, 8)):
    return PolicyNet(input_dim, _schema(), hidden=hidden, rng=np.random.default_rng(seed))


def _batch(net, B=32, seed=1):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(B, net.input_dim))
    params = forward(net, obs)
    action, logp = sample_action(params, rng)
    return {
        "obs": obs,
        "cat": action.cat,
        "cont": action.cont,
        "logp": logp,
        "adv": rng.normal(size=B),
        "ret": rng.normal(size=B),
    }


def _with_constants(net, batch):
    """``batch`` with its actions' ``action_constants``, as ``loss_and_grads`` reads it."""
    return {**batch, **action_constants(net.schema, batch["cat"], batch["cont"])}


def test_schema_layout():
    s = ActionSchema(cat_arities=(3, 3, 2, 2, 2, 4), cont_bounds=((0, 1),))
    assert s.num_cat == 6
    assert s.num_cont == 1
    assert s.num_logits == 3 + 3 + 2 + 2 + 2 + 4
    # equal-arity slots group into contiguous runs
    assert s._runs == ((0, 2, 3, 0), (2, 3, 2, 6), (5, 1, 4, 12))


def test_forward_shapes_and_log_std_clamp():
    net = _net()
    obs = np.random.default_rng(2).normal(size=(7, 5))
    params = forward(net, obs)
    assert params.logits.shape == (7, 8)
    assert params.mean.shape == (7, 2)
    assert params.value.shape == (7,)
    net.params["log_std"][:] = (-50.0, 50.0)
    params = forward(net, obs)
    assert (params.log_std >= -5.0).all() and (params.log_std <= 2.0).all()


def test_sampled_actions_respect_the_schema():
    net = _net()
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(256, 5))
    action, logp = sample_action(forward(net, obs), rng)
    assert action.cat.shape == (256, 3)
    assert (action.cat[:, 0] < 3).all() and (action.cat[:, 2] < 2).all()
    assert (action.cat >= 0).all()
    assert (action.cont[:, 0] > 0).all() and (action.cont[:, 0] < 1).all()
    assert (np.abs(action.cont[:, 1]) < 10).all()
    assert np.isfinite(logp).all()


def test_sample_log_prob_consistency():
    # the log-prob returned by the sampler must equal a fresh evaluation
    net = _net()
    rng = np.random.default_rng(4)
    params = forward(net, rng.normal(size=(64, 5)))
    action, logp = sample_action(params, rng)
    again = log_prob(params, action)
    assert np.array_equal(logp, again)


def test_log_prob_favors_likelier_categories():
    net = _net()
    params = forward(net, np.random.default_rng(20).normal(size=(1, 5)))
    hi = np.argmax(params.logits[0, :3])
    lo = np.argmin(params.logits[0, :3])
    assert params.logits[0, hi] > params.logits[0, lo]
    cont = mode_action(params).cont
    lp_hi = log_prob(params, ActionBatch(cat=np.array([[hi, 0, 0]]), cont=cont))
    lp_lo = log_prob(params, ActionBatch(cat=np.array([[lo, 0, 0]]), cont=cont))
    assert lp_hi[0] > lp_lo[0]


def test_zero_width_bounds_stay_finite():
    # a grounded node has movement bounds (0, 0); the slot is pinned, not sampled
    schema = ActionSchema(cat_arities=(3,), cont_bounds=((0.0, 0.0), (-5.0, 5.0)))
    net = PolicyNet(4, schema, hidden=(8, 8), rng=np.random.default_rng(11))
    params = forward(net, np.random.default_rng(12).normal(size=(32, 4)))
    action, logp = sample_action(params, np.random.default_rng(13))
    assert (action.cont[:, 0] == 0.0).all()
    assert np.isfinite(logp).all()
    assert np.array_equal(logp, log_prob(params, action))
    assert np.isfinite(entropy(params)).all()
    assert np.isfinite(log_prob(params, mode_action(params))).all()


def test_stacked_forward_matches_separate_forwards_bitwise():
    # hdrl runs its shared nets as one stacked forward and decides the stack
    # in one call; that only keeps its outputs unchanged if every stacked
    # batch gets exactly the numbers of a forward of that batch alone
    rng = np.random.default_rng(11)
    for trial in range(40):
        stack, rows, dim = (int(x) for x in rng.integers(1, 9, size=3))
        net = PolicyNet(dim + 2, _schema(), rng=np.random.default_rng(trial))
        obs = rng.normal(size=(stack, rows, dim + 2))
        stacked = forward(net, obs)
        for i in range(stack):
            alone = forward(net, obs[i])
            part = batch_of(stacked, i)
            for name in ("logits", "mean", "value"):
                assert getattr(part, name).tobytes() == getattr(alone, name).tobytes(), name
            assert part.log_std.tobytes() == alone.log_std.tobytes()


def test_mode_action_is_deterministic():
    net = _net()
    obs = np.random.default_rng(5).normal(size=(4, 5))
    a = mode_action(forward(net, obs))
    b = mode_action(forward(net, obs))
    assert np.array_equal(a.cat, b.cat)
    assert np.array_equal(a.cont, b.cont)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    arities=st.lists(st.integers(2, 4), max_size=6),
    boxes=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 20.0])), max_size=4
    ),
    stack=st.integers(1, 5),
    rows=st.integers(1, 4),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_mode_action_matches_per_batch_calls(arities, boxes, stack, rows, ties, seed, data):
    # a greedy policy slot decides all its entities with one call on its
    # (S, B, ·) forward; each batch must get the bits, dtype and shape of a
    # call on that batch alone, including argmax ties and zero-width boxes
    schema = ActionSchema(
        cat_arities=tuple(arities), cont_bounds=tuple((lo, lo + width) for lo, width in boxes)
    )
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(stack, rows, schema.num_logits))
    if ties:  # few distinct values, so equal maxima are common
        logits = np.round(logits)
    mean = rng.normal(scale=float(rng.choice([1.0, 30.0])), size=(stack, rows, schema.num_cont))
    stacked = DistParams(
        logits, mean, rng.normal(size=schema.num_cont), rng.normal(size=(stack, rows)), schema
    )
    start = data.draw(st.integers(0, schema.num_cat))
    got = mode_action(stacked)
    got_slots = mode_slots(stacked, start)
    assert np.array_equal(got_slots, got.cat[..., start:])  # the tail of the full decode
    for s in range(stack):
        want = mode_action(batch_of(stacked, s))
        for name in ("cat", "cont"):
            a, b = getattr(got, name)[s], getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        a, b = got_slots[s], mode_slots(batch_of(stacked, s), start)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(derandomize=True, deadline=None, max_examples=150)
@example(arities=[1, 12], boxes=[(0.0, 0.0), (-1.0, 20.0)], stack=6, rows=5, flat=False, seed=3)
@example(arities=[2, 2, 2], boxes=[], stack=1, rows=5, flat=True, seed=4)
@given(
    arities=st.lists(st.integers(1, 12), max_size=6),
    boxes=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 20.0])), max_size=4
    ),
    stack=st.integers(1, 6),
    rows=st.integers(1, 5),
    flat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_sample_action_matches_per_batch_calls(arities, boxes, stack, rows, flat, seed):
    # an exploring policy slot samples all its entities with one call on its
    # (S, B, ·) forward; each batch must draw what a call on it alone draws,
    # in the same order, so the result is the per-batch results concatenated
    # bit for bit and the generator ends in the same state
    schema = ActionSchema(
        cat_arities=tuple(arities), cont_bounds=tuple((lo, lo + width) for lo, width in boxes)
    )
    rng = np.random.default_rng(seed)
    scale = float(rng.choice([1.0, 30.0]))
    C = schema.num_cont
    stacked = DistParams(
        rng.normal(scale=scale, size=(stack, rows, schema.num_logits)),
        rng.normal(scale=scale, size=(stack, rows, C)),
        np.clip(rng.normal(size=C), LOG_STD_MIN, LOG_STD_MAX),
        rng.normal(size=(stack, rows)),
        schema,
    )
    # a (B, ·) batch counts as a stack of one
    params = batch_of(stacked, 0) if flat and stack == 1 else stacked
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got, got_logp = sample_action(params, got_rng)
    wants = [sample_action_loop(batch_of(stacked, s), want_rng) for s in range(stack)]
    for name in ("cat", "cont"):
        a = getattr(got, name)
        b = np.concatenate([getattr(action, name) for action, _ in wants])
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    want_logp = np.concatenate([logp for _, logp in wants])
    assert (got_logp.shape, got_logp.tobytes()) == (want_logp.shape, want_logp.tobytes())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _bits(x: np.ndarray) -> tuple:
    return x.dtype, x.shape, x.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    arity=st.integers(1, 12),
    rows=st.integers(1, 6),
    slots=st.integers(1, 5),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_folds_give_the_bits_of_numpy_reductions(arity, rows, slots, zeros, seed):
    # the log-softmax folds its short arity axis by hand; the folds must give
    # the bits of numpy's .max and .sum over it, signed zeros included, and
    # the log-softmax and entropy the bits of the written-out formulas
    rng = np.random.default_rng(seed)
    shape = (rows, slots, arity)
    lg = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    if zeros:
        lg[rng.random(shape) < 0.3] = 0.0
        lg[rng.random(shape) < 0.3] = -0.0
    assert _bits(_max_last(lg)) == _bits(lg.max(axis=-1))
    m = lg.max(axis=-1, keepdims=True)
    e = np.exp(lg - m)
    assert _bits(_sum_last(e)) == _bits(e.sum(axis=-1))
    assert _bits(_sum_last(lg)) == _bits(lg.sum(axis=-1))
    logp = lg - (m + np.log(e.sum(axis=-1, keepdims=True)))
    prob = np.exp(logp)
    assert _bits(_sum_last(prob * logp)) == _bits((prob * logp).sum(axis=-1))

    schema = ActionSchema(cat_arities=(arity,) * slots)
    params = DistParams(lg.reshape(rows, -1), np.zeros((rows, 0)), np.zeros(0), np.zeros(rows), schema)
    ((_, _, _, got),) = _log_softmax_runs(params)
    assert _bits(got) == _bits(logp)
    got_prob, got_h = _probs_and_entropy(got)
    assert _bits(got_prob) == _bits(prob)
    assert _bits(got_h) == _bits(-(prob * logp).sum(axis=-1, keepdims=True))


def test_uniform_categorical_entropy():
    schema = ActionSchema(cat_arities=(4, 4), cont_bounds=())
    net = PolicyNet(3, schema, hidden=(8, 8), rng=np.random.default_rng(0))
    net.params["Wl"][:] = 0.0
    net.params["bl"][:] = 0.0
    params = forward(net, np.zeros((1, 3)))
    assert entropy(params)[0] == pytest.approx(2 * np.log(4), rel=1e-12)


def test_gae_undiscounted_reference():
    adv, ret = gae(np.array([1.0, 2.0]), np.zeros(2), np.array([0.0, 1.0]), 1.0, 1.0)
    assert np.allclose(adv, [3.0, 2.0])
    assert np.allclose(ret, [3.0, 2.0])


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(6)
    r = rng.normal(size=8)
    v = rng.normal(size=8)
    d = np.zeros(8)
    d[4] = 1.0
    gamma = 0.9
    adv, ret = gae(r, v, d, gamma, 0.0)
    next_v = np.append(v[1:], 0.0)
    expect = r + gamma * next_v * (1 - d) - v
    assert np.allclose(adv, expect, atol=1e-12)
    assert np.allclose(ret, expect + v, atol=1e-12)


def test_gae_lambda_one_matches_discounted_returns():
    # with lam=1 the advantage collapses to (discounted reward-to-go - V),
    # computed here by an independent forward recursion
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = int(rng.integers(2, 40))
        r = rng.normal(size=T)
        v = rng.normal(size=T)
        d = (rng.random(T) < 0.2).astype(float)
        d[-1] = 1.0
        gamma = float(rng.uniform(0.8, 1.0))
        adv, ret = gae(r, v, d, gamma, 1.0)
        expect = np.zeros(T)
        g = 0.0
        for t in range(T - 1, -1, -1):
            g = r[t] + gamma * g * (1.0 - d[t])
            expect[t] = g
        assert np.allclose(ret, expect, atol=1e-10)
        assert np.allclose(adv, expect - v, atol=1e-10)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    entities=st.integers(1, 5),
    dim=st.integers(1, 4),
    num_cat=st.integers(0, 3),
    num_cont=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@example(counts=[10, 3, 8, 1], entities=3, dim=2, num_cat=0, num_cont=2, seed=0)
@example(counts=[6, 6, 1], entities=1, dim=3, num_cat=2, num_cont=0, seed=1)
def test_trajectory_finalize_matches_the_per_entity_trajectories(
    counts, entities, dim, num_cat, num_cont, seed
):
    # K epochs of E entities with ragged reward counts: the epoch-wise store
    # must give, bit for bit, each entity's own trajectory's rows, entity by
    # entity, the last epoch done
    rng = np.random.default_rng(seed)
    K, E = len(counts), entities
    traj = Trajectory()
    want = [EntityTrajectory() for _ in range(E)]
    for k, n in enumerate(counts):
        obs = rng.normal(size=(E, dim))
        cat = rng.integers(0, 3, size=(E, num_cat))
        cont = rng.normal(size=(E, num_cont))
        logp, value = rng.normal(size=E), rng.normal(size=E)
        rewards = rng.normal(size=(n, E)) * 10.0 ** rng.integers(-2, 3, size=E)
        traj.add(obs, cat, cont, logp, value)
        for step in rewards:
            traj.reward(step.copy())
        for e in range(E):
            want[e].add(obs[e], cat[e], cont[e], logp[e], value[e], np.mean(rewards[:, e]), k == K - 1)
    assert len(traj) == K
    got = traj.finalize(0.99, 0.95)
    parts = [w.finalize(0.99, 0.95) for w in want]
    assert list(got) == list(parts[0])
    for key in parts[0]:
        expect = np.concatenate([part[key] for part in parts])
        assert _same(got[key], expect), key
    assert got["obs"].shape == (K * E, dim)
    assert (got["cat"].shape, got["cont"].shape) == ((K * E, num_cat), (K * E, num_cont))


def test_trajectory_rewards_before_the_first_epoch_are_dropped():
    traj = Trajectory()
    traj.reward(np.ones(2))
    traj.add(np.zeros((2, 3)), np.zeros((2, 1), dtype=np.int64), np.zeros((2, 0)), np.zeros(2), np.zeros(2))
    traj.reward(np.array([1.0, 3.0]))
    assert [list(r) for r in traj.rewards[0]] == [[1.0, 3.0]]


def test_analytic_gradients_match_finite_differences():
    cfg = PpoConfig(clip_eps=0.2, entropy_coef=0.01, vf_coef=1.0)
    for seed in range(3):
        net = _net(seed=seed)
        batch = _with_constants(net, _batch(net, B=16, seed=seed + 10))

        def loss_fn(n):
            report, grads = loss_and_grads(n, batch, cfg)
            return report.loss, grads

        assert grad_check(net, loss_fn) < 1e-3


def test_ppo_update_moves_params_and_reports():
    net = _net()
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, batch_size=32, sgd_iters=2)
    before = param_vector(net).copy()
    opt = Adam(net.flat, cfg.learning_rate)
    report = ppo_update(net, _batch(net), cfg, np.random.default_rng(9), opt)
    assert report.grad_steps == 2 * 4  # sgd_iters * ceil(32 / 8)
    assert not np.array_equal(before, param_vector(net))
    assert np.isfinite(report.policy_loss)
    assert 0.0 <= report.clip_fraction <= 1.0


def test_zero_learning_rate_is_a_bitwise_no_op():
    net = _net()
    cfg = PpoConfig(learning_rate=0.0, minibatch_size=8, batch_size=32, sgd_iters=3)
    before = param_vector(net).copy()
    opt = Adam(net.flat, cfg.learning_rate)
    ppo_update(net, _batch(net), cfg, np.random.default_rng(10), opt)
    assert np.array_equal(before, param_vector(net))


def test_adam_single_step_reference():
    # one Adam step from zeroed moments: delta = lr * g / (|g| sqrt(1-b2) / sqrt(1-b2) ...)
    flat, grad = np.array([1.0, -2.0]), np.array([0.5, -0.25])
    params = {"w": flat[:]}  # a view, as a net's params are
    opt = Adam(flat, lr=0.01)
    opt.step(flat, grad, (np.empty(2), np.empty(2)))
    # bias-corrected m-hat = g, v-hat = g^2, so the step is lr * sign(g) (up to eps)
    expect = np.array([1.0, -2.0]) - 0.01 * np.sign([0.5, -0.25])
    assert np.allclose(params["w"], expect, atol=1e-6)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _on_box_edges(batch: dict, schema: ActionSchema, seed: int) -> dict:
    """``batch`` with about half its continuous actions moved exactly onto a
    box edge, where the unsquash clips u to +-(1 - 1e-12)."""
    rng = np.random.default_rng(seed)
    box = schema._box
    edge = np.where(rng.random(batch["cont"].shape) < 0.5, box.lo, box.lo + box.width)
    return {**batch, "cont": np.where(rng.random(edge.shape) < 0.5, edge, batch["cont"])}


def _report_bits(report) -> bytes:
    """A report's fields as float64 bytes: equal reports, NaNs and signed zeros included."""
    return np.array(astuple(report), dtype=float).tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["cat", "cont", "mixed"]),
    arities=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    widths=st.lists(st.sampled_from([0.0, 0.5, 20.0]), min_size=1, max_size=3),
    raw_log_std=st.sampled_from([None, LOG_STD_MIN, LOG_STD_MAX, -9.0, 4.0]),
    rows=st.integers(1, 40),
    minibatch=st.integers(1, 24),
    hidden=st.sampled_from([(4, 4), (8, 5), (3, 9)]),
    max_norm=st.sampled_from([1e-3, MAX_GRAD_NORM, 1e9]),
    edges=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# desk's local tier: 200-row minibatches through 128 hidden units
@example(
    kind="mixed", arities=[2, 2, 2, 2], widths=[0.5, 0.0, 20.0], raw_log_std=None, rows=600,
    minibatch=200, hidden=(128, 128), max_norm=MAX_GRAD_NORM, edges=False, seed=0,
)
def test_update_matches_the_per_key_loops_bitwise(
    kind, arities, widths, raw_log_std, rows, minibatch, hidden, max_norm, edges, seed
):
    # the flat buffers, the workspace and the in-place ops must give the bits
    # of the same update on per-key dicts of new arrays
    schema = ActionSchema(
        cat_arities=() if kind == "cont" else tuple(arities),
        cont_bounds=() if kind == "cat" else tuple((-1.0, -1.0 + w) for w in widths),
    )
    rng = np.random.default_rng(seed)
    net = PolicyNet(int(rng.integers(1, 7)), schema, hidden=hidden, rng=rng)
    if raw_log_std is not None and schema.num_cont:
        net.params["log_std"][0] = raw_log_std  # at or past the clamp: its gradient is gated off
    twin = SimpleNamespace(
        params={k: v.copy() for k, v in net.params.items()}, schema=schema, hidden=net.hidden
    )
    batch = _batch(net, B=rows, seed=seed)
    if edges:
        batch = _on_box_edges(batch, schema, seed + 2)
    cfg = PpoConfig(learning_rate=3e-3, minibatch_size=minibatch, batch_size=rows, sgd_iters=2)

    # one step, in a workspace with rows to spare, and with clipping that
    # fires (1e-3), may fire (the update's cap) or does not (1e9)
    ws = _Workspace(net, rows + 3)
    report, grads = loss_and_grads(net, _with_constants(net, batch), cfg, ws)
    want_report, want = loss_and_grads_loop(twin, batch, cfg)
    assert _report_bits(report) == _report_bits(want_report)
    assert list(grads) == list(want)
    assert all(_same(grads[k], want[k]) for k in want)
    assert clip_grad_norm(grads, ws.grad, max_norm, ws.scratch[0]) == clip_grad_norm_loop(want, max_norm)
    assert all(_same(grads[k], want[k]) for k in want)
    opt, opt_ref = Adam(net.flat, cfg.learning_rate), AdamLoop(twin.params, cfg.learning_rate)
    opt.step(net.flat, ws.grad, ws.scratch)
    opt_ref.step(twin.params, want)

    # then a whole update on the moments that step left
    rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = ppo_update(net, batch, cfg, rng_a, opt)
    assert _report_bits(got) == _report_bits(ppo_update_loop(twin, batch, cfg, rng_b, opt_ref))
    assert all(_same(net.params[k], twin.params[k]) for k in twin.params)
    m, v = net.views(opt.m), net.views(opt.v)
    assert all(_same(m[k], opt_ref.m[k]) and _same(v[k], opt_ref.v[k]) for k in twin.params)
    assert opt.t == opt_ref.t == 1 + got.grad_steps
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_minibatch_steps_allocate_no_hidden_sized_arrays(monkeypatch):
    # the workspace is allocated once per update; a step that went back to
    # new (minibatch, hidden) arrays, even one, raises the peak past this bound
    schema = ActionSchema(cat_arities=(2, 2, 2, 2), cont_bounds=((0.0, 1.0),) * 6)
    net = PolicyNet(22, schema, rng=np.random.default_rng(0))
    batch = _batch(net, B=600, seed=1)
    cfg = PpoConfig(minibatch_size=200, batch_size=600, sgd_iters=2)
    inner = specshare.ppo.loss_and_grads
    calls, base = [], []

    def marking(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the second minibatch: every buffer of the update exists
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(specshare.ppo, "loss_and_grads", marking)
    tracemalloc.start()
    try:
        report = ppo_update(net, batch, cfg, np.random.default_rng(2), Adam(net.flat, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.grad_steps == 6
    assert peak - base[0] < 200 * 128 * 8


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["cat", "cont", "mixed"]),
    arities=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    widths=st.lists(st.sampled_from([0.0, 0.5, 20.0]), min_size=1, max_size=4),
    edges=st.booleans(),
    rows=st.integers(1, 40),
    minibatch=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
# a batch the minibatch does not divide, with actions on their box edges
@example(kind="mixed", arities=[2, 3, 3], widths=[0.5, 0.0], edges=True, rows=23, minibatch=5, seed=1)
# desk's local tier
@example(
    kind="mixed", arities=[2, 2, 2, 2], widths=[0.5] * 6, edges=False, rows=600, minibatch=200,
    seed=0,
)
def test_update_steps_read_the_action_constants_of_their_rows(
    kind, arities, widths, edges, rows, minibatch, seed
):
    # ppo_update computes the action constants once over the whole batch and
    # each minibatch gathers its rows of them; every step must read the bits
    # that the constants of its rows alone have, and its rows of every other key
    schema = ActionSchema(
        cat_arities=() if kind == "cont" else tuple(arities),
        cont_bounds=() if kind == "cat" else tuple((-1.0, -1.0 + w) for w in widths),
    )
    rng = np.random.default_rng(seed)
    net = PolicyNet(3, schema, hidden=(4, 4), rng=rng)
    batch = _batch(net, B=rows, seed=seed)
    if edges:
        batch = _on_box_edges(batch, schema, seed + 2)
    cfg = PpoConfig(minibatch_size=minibatch, batch_size=rows, sgd_iters=2)
    inner, seen = specshare.ppo.loss_and_grads, []

    def recording(net, minibatch, *args, **kwargs):
        seen.append({k: v.copy() for k, v in minibatch.items()})
        return inner(net, minibatch, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specshare.ppo, "loss_and_grads", recording)
        ppo_update(net, batch, cfg, np.random.default_rng(seed + 1), Adam(net.flat, 1e-3))

    adv = batch["adv"]
    rows_of = {**batch, "adv": (adv - adv.mean()) / (adv.std() + 1e-8)}
    perm_rng, mb, want = np.random.default_rng(seed + 1), min(minibatch, rows), []
    for _ in range(cfg.sgd_iters):
        perm = perm_rng.permutation(rows)
        for start in range(0, rows, mb):
            idx = perm[start : start + mb]
            part = {k: rows_of[k][idx] for k in ("obs", "cat", "logp", "adv", "ret")}
            want.append({**part, **action_constants(schema, batch["cat"][idx], batch["cont"][idx])})
    assert len(seen) == len(want)
    for got, expect in zip(seen, want):
        assert list(got) == list(expect)
        assert all(_same(got[k], expect[k]) for k in expect)


# cProfile's count of Python-level calls per minibatch step of one ppo_update
# at desk's local-tier shapes was 79.58 when this budget was set (Python 3.11,
# numpy 2.4; 180.20 before the per-update work left the steps); it leaves
# about 15% headroom
UPDATE_STEP_CALL_BUDGET = 91


def test_a_ppo_update_stays_within_its_call_budget():
    # desk's local tier: 600 rows, 200-row minibatches, 15 iterations, 22
    # inputs, four binary slots and six boxes; the count does not depend on
    # the host's speed
    schema = ActionSchema(cat_arities=(2,) * 4, cont_bounds=((0.0, 1.0),) * 6)
    net = PolicyNet(22, schema, rng=np.random.default_rng(0))
    batch = _batch(net, B=600, seed=1)
    cfg = PpoConfig(minibatch_size=200, batch_size=600, sgd_iters=15)
    opt = Adam(net.flat, cfg.learning_rate)
    profiler = cProfile.Profile()
    profiler.enable()
    report = ppo_update(net, batch, cfg, np.random.default_rng(2), opt)
    profiler.disable()
    assert report.grad_steps == 45
    # one entry per code object, as tools/bench_point.py counts them
    calls = sum(e.callcount for e in profiler.getstats()) / report.grad_steps
    assert calls <= UPDATE_STEP_CALL_BUDGET, f"{calls} calls per minibatch step"


def test_grad_norm_clip_allocates_no_gradient_sized_array():
    # the squares go into the workspace's scratch vector; a new g * g for W1
    # alone is 128 KiB at 128 hidden units
    schema = ActionSchema(cat_arities=(2, 2, 2, 2), cont_bounds=((0.0, 1.0),) * 6)
    net = PolicyNet(22, schema, rng=np.random.default_rng(0))
    ws = _Workspace(net, 200)
    _, grads = loss_and_grads(net, _with_constants(net, _batch(net, B=200, seed=1)), PpoConfig(), ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norm = clip_grad_norm(grads, ws.grad, 1e-3, ws.scratch[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm > 1e-3  # the scaling ran too
    assert peak - base < 4096


def test_grads_without_a_workspace_are_new_arrays():
    # grad_check keeps the analytic grads while it calls the loss again
    net = _net()
    batch = _with_constants(net, _batch(net, B=16))
    cfg = PpoConfig()
    _, first = loss_and_grads(net, batch, cfg)
    kept = {k: g.copy() for k, g in first.items()}
    _, second = loss_and_grads(net, batch, cfg)
    for k in first:
        assert not np.shares_memory(first[k], second[k]), k
        assert np.array_equal(first[k], kept[k]), k


def test_params_are_aligned_views_into_the_flat_vector():
    net = _net()
    for k, value in net.params.items():
        assert np.shares_memory(value, net.flat), k
        assert value.ctypes.data % 64 == 0, k  # the decision-time products are slower off it
    for a, b in zip(list(net.params.values()), list(net.params.values())[1:]):
        assert not np.shares_memory(a, b)


def test_clip_grad_norm_scales_to_the_cap():
    flat = np.array([3.0, 0.0, 4.0])
    grads = {"a": flat[:2], "b": flat[2:]}
    norm = clip_grad_norm(grads, flat, 0.5, np.empty(3))
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum((g**2).sum() for g in grads.values()))
    assert total == pytest.approx(0.5)


def test_update_is_deterministic_given_the_rng_seed():
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, batch_size=32, sgd_iters=2)
    net_a, net_b = _net(), _net()
    batch = _batch(net_a)
    for net in (net_a, net_b):
        opt = Adam(net.flat, cfg.learning_rate)
        ppo_update(net, copy.deepcopy(batch), cfg, np.random.default_rng(11), opt)
    assert np.array_equal(param_vector(net_a), param_vector(net_b))


def test_checkpoint_round_trip(tmp_path):
    net = _net(seed=3)
    rng = np.random.default_rng(12)
    rng.normal(size=10)  # advance the stream so the state is nontrivial
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "sadrl", "abc123", {"pi": net}, PpoConfig(), rng, meta={"episodes": 5})
    blob = load_checkpoint(path)
    assert blob["kind"] == "sadrl"
    assert blob["config_hash"] == "abc123"
    assert blob["meta"] == {"episodes": 5}
    saved = json.loads(path.read_text())["nets"]["pi"]
    restored = ActionSchema(
        tuple(saved["cat_arities"]), tuple(tuple(b) for b in saved["cont_bounds"])
    )
    assert restored == net.schema
    assert set(blob["nets"]["pi"]) == set(net.params)
    for k in net.params:
        assert np.array_equal(blob["nets"]["pi"][k], net.params[k]), k
    # restored rng continues the exact stream
    assert blob["rng"].normal() == rng.normal()


def test_failed_checkpoint_save_leaves_the_previous_file(tmp_path):
    # json.dump raises on the unserializable meta after it has written the
    # fields before it; the earlier checkpoint must survive byte for byte
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "sadrl", "h", {"pi": _net(seed=3)}, PpoConfig(), np.random.default_rng(0))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(
            path, "sadrl", "h", {"pi": _net(seed=4)}, PpoConfig(), np.random.default_rng(1),
            meta={"episodes": object()},
        )
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_checkpoint_version_gate(tmp_path):
    net = _net()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "sadrl", "h", {"pi": net}, PpoConfig(), np.random.default_rng(0))
    blob = json.loads(path.read_text())
    blob["format_version"] = 999
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)
    path.write_text("[1]")  # JSON, but not a checkpoint object
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)
