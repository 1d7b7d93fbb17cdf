import copy

import numpy as np
import pytest

from specshare.config import PpoConfig
from specshare.ppo import (
    ActionBatch,
    ActionSchema,
    Adam,
    PolicyNet,
    Trajectory,
    clip_grad_norm,
    entropy,
    forward,
    gae,
    grad_check,
    load_checkpoint,
    log_prob,
    loss_and_grads,
    mode_action,
    ppo_update,
    sample_action,
    save_checkpoint,
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


def test_schema_layout():
    s = ActionSchema(cat_arities=(3, 3, 2, 2, 2, 4), cont_bounds=((0, 1),))
    assert s.num_cat == 6
    assert s.num_cont == 1
    assert s.num_logits == 3 + 3 + 2 + 2 + 2 + 4
    # equal-arity slots group into contiguous runs
    assert s.runs() == [(0, 2, 3, 0), (2, 3, 2, 6), (5, 1, 4, 12)]


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
    # hdrl runs its shared nets as one stacked forward and samples entity by
    # entity; that only keeps its outputs unchanged if every stacked batch
    # gets exactly the numbers of a forward of that batch alone
    rng = np.random.default_rng(11)
    for trial in range(40):
        stack, rows, dim = (int(x) for x in rng.integers(1, 9, size=3))
        net = PolicyNet(dim + 2, _schema(), rng=np.random.default_rng(trial))
        obs = rng.normal(size=(stack, rows, dim + 2))
        stacked = forward(net, obs)
        for i in range(stack):
            alone = forward(net, obs[i])
            part = stacked[i]
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
    adv, ret = gae(r, v, d, gamma, 0.0, bootstrap_value=0.3)
    next_v = np.append(v[1:], 0.3)
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


def test_gae_bootstrap_value_feeds_the_last_step():
    adv_no, _ = gae(np.array([1.0]), np.array([0.0]), np.array([0.0]), 0.5, 1.0)
    adv_bs, _ = gae(np.array([1.0]), np.array([0.0]), np.array([0.0]), 0.5, 1.0, bootstrap_value=2.0)
    assert adv_bs[0] - adv_no[0] == pytest.approx(0.5 * 2.0)


def test_trajectory_finalize_shapes():
    traj = Trajectory()
    rng = np.random.default_rng(8)
    for t in range(6):
        traj.add(rng.normal(size=4), [1, 0], [0.3, -0.2], -1.2, 0.1, 1.0, t == 5)
    out = traj.finalize(0.99, 0.95)
    assert out["obs"].shape == (6, 4)
    assert out["cat"].shape == (6, 2)
    assert out["cont"].shape == (6, 2)
    assert out["logp"].shape == (6,)
    assert out["adv"].shape == (6,)
    assert out["ret"].shape == (6,)


def test_analytic_gradients_match_finite_differences():
    cfg = PpoConfig(clip_eps=0.2, entropy_coef=0.01, vf_coef=1.0)
    for seed in range(3):
        net = _net(seed=seed)
        batch = _batch(net, B=16, seed=seed + 10)

        def loss_fn(n):
            report, grads = loss_and_grads(n, batch, cfg)
            return report.loss, grads

        assert grad_check(net, loss_fn) < 1e-3


def test_ppo_update_moves_params_and_reports():
    net = _net()
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, batch_size=32, sgd_iters=2)
    before = param_vector(net).copy()
    report = ppo_update(net, _batch(net), cfg, np.random.default_rng(9))
    assert report.grad_steps == 2 * 4  # sgd_iters * ceil(32 / 8)
    assert not np.array_equal(before, param_vector(net))
    assert np.isfinite(report.policy_loss)
    assert 0.0 <= report.clip_fraction <= 1.0


def test_zero_learning_rate_is_a_bitwise_no_op():
    net = _net()
    cfg = PpoConfig(learning_rate=0.0, minibatch_size=8, batch_size=32, sgd_iters=3)
    before = param_vector(net).copy()
    ppo_update(net, _batch(net), cfg, np.random.default_rng(10))
    assert np.array_equal(before, param_vector(net))


def test_adam_single_step_reference():
    # one Adam step from zeroed moments: delta = lr * g / (|g| sqrt(1-b2) / sqrt(1-b2) ...)
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    opt = Adam(params, lr=0.01)
    opt.step(params, grads)
    # bias-corrected m-hat = g, v-hat = g^2, so the step is lr * sign(g) (up to eps)
    expect = np.array([1.0, -2.0]) - 0.01 * np.sign([0.5, -0.25])
    assert np.allclose(params["w"], expect, atol=1e-6)


def test_clip_grad_norm_scales_to_the_cap():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    norm = clip_grad_norm(grads, 0.5)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum((g**2).sum() for g in grads.values()))
    assert total == pytest.approx(0.5)


def test_update_is_deterministic_given_the_rng_seed():
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, batch_size=32, sgd_iters=2)
    net_a, net_b = _net(), _net()
    batch = _batch(net_a)
    ppo_update(net_a, copy.deepcopy(batch), cfg, np.random.default_rng(11))
    ppo_update(net_b, copy.deepcopy(batch), cfg, np.random.default_rng(11))
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
    restored = blob["nets"]["pi"]
    assert restored.schema == net.schema
    for k in net.params:
        assert np.array_equal(restored.params[k], net.params[k]), k
    # restored rng continues the exact stream
    assert blob["rng"].normal() == rng.normal()


def test_checkpoint_version_gate(tmp_path):
    import json

    net = _net()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "sadrl", "h", {"pi": net}, PpoConfig(), np.random.default_rng(0))
    blob = json.loads(path.read_text())
    blob["format_version"] = 999
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)
