"""Each benchmark check passes on the simulator's output and fails on a
corrupted copy of the value it checks.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from specshare import SpectrumSharingEnv, agents, load_config  # noqa: E402


def _stepped(config: str):
    """An env after the first random step that serves some user."""
    cfg = load_config(ROOT / "configs" / config)
    env = SpectrumSharingEnv(cfg)
    agent = agents.make_agent("random", cfg)
    obs = env.reset()
    for t in range(cfg.steps_per_episode):
        obs, _, _, _, metrics = env.step(agent.act(obs, t))
        if metrics.eta > 0:
            return env, metrics
    raise AssertionError("no random step served a user")


@pytest.fixture(scope="module")
def desk():
    return _stepped("desk.cfg")


def test_rates_match_and_corrupted_rates_fail(desk):
    env, metrics = desk
    cfg, state = env.cfg, env.state
    gains = state.snapshot.gains
    assert metrics.eta > 0
    checks.check_rates(cfg, gains, state.alloc, metrics.user_rates, metrics.eta)
    rates = metrics.user_rates.copy()
    rates[np.argmax(rates)] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="user rate"):
        checks.check_rates(cfg, gains, state.alloc, rates, metrics.eta)
    with pytest.raises(checks.CheckFailed, match="eta"):
        checks.check_rates(cfg, gains, state.alloc, metrics.user_rates, metrics.eta * (1 + 1e-6))


def _corrupt(alloc, field, index, value):
    bad = copy.deepcopy(alloc)
    getattr(bad, field)[index] = value
    return bad


def test_allocation_constraints_fail_on_each_violation(desk):
    env, _ = desk
    cfg, alloc = env.cfg, env.state.alloc
    checks.check_allocation(cfg, alloc)
    m = checks.nodes_per_region(cfg)
    full = copy.deepcopy(alloc)
    full.global_alloc[:] = 0
    full.global_alloc[0, :] = 1  # beam 0 holds every subband; region 0 is beam 0's
    full.regional[:] = 0
    full.beta[:] = 0
    full.alpha[:] = 0
    full.dp[:] = 0
    checks.check_allocation(cfg, full)
    cases = [
        ("not 0/1", _corrupt(full, "regional", (0, 0), 2)),
        ("more than one beam", _corrupt(full, "global_alloc", (1, 0), 1)),
        ("more than one node", _corrupt(_corrupt(full, "regional", (0, 1), 1), "regional", (1, 1), 1)),
        ("beam does not hold", _corrupt(full, "regional", (m, 0), 1)),
        ("without a regional grant", _corrupt(full, "beta", (0, 2), 1)),
        ("alpha outside", _corrupt(full, "alpha", (0, 0), 1.5)),
        ("alpha outside", _corrupt(full, "alpha", (0, 0), -0.1)),
        ("exceeds uav_step", _corrupt(full, "dp", (2, 0), cfg.uav_step * 1.01)),
        ("non-UAV row moves", _corrupt(full, "dp", (0, 1), 1.0)),
    ]
    over = _corrupt(_corrupt(full, "regional", (0, 0), 1), "regional", (0, 1), 1)
    over = _corrupt(_corrupt(over, "beta", (0, 0), 1), "beta", (0, 1), 1)
    over.alpha[0, :2] = 0.6
    cases.append(("power fraction", over))
    for match, bad in cases:
        with pytest.raises(checks.CheckFailed, match=match):
            checks.check_allocation(cfg, bad)


def test_metrics_checks_fail_on_bad_fairness_and_nan(desk):
    env, metrics = desk
    cfg = env.cfg
    checks.check_metrics(cfg, metrics)
    users = checks.num_regions(cfg) * cfg.users_per_region
    for field, value in (("fairness", 1.0 + 1e-6), ("fairness", 0.5 / users)):
        bad = copy.copy(metrics)
        setattr(bad, field, value)
        with pytest.raises(checks.CheckFailed, match="outside"):
            checks.check_metrics(cfg, bad)
    bad = copy.copy(metrics)
    bad.region_fairness = metrics.region_fairness.copy()
    bad.region_fairness[0] = 0.5 / cfg.users_per_region
    with pytest.raises(checks.CheckFailed, match="region_fairness"):
        checks.check_metrics(cfg, bad)
    bad = copy.copy(metrics)
    bad.r_s = float("nan")
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_metrics(cfg, bad)


def test_frozen_gains_fail_when_off_free_space(desk):
    env, _ = desk
    cfg, state = env.cfg, env.state
    users = env.topology.user_positions
    checks.check_frozen_gains(cfg, state.snapshot.gains, state.tx_positions, users)
    gains = state.snapshot.gains.copy()
    gains[1, 2] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="free space"):
        checks.check_frozen_gains(cfg, gains, state.tx_positions, users)


def test_gain_ratio_matches_fading_and_fails_without_it():
    env, metrics = _stepped("default.cfg")
    cfg = env.cfg
    users = env.topology.user_positions
    total, count, frozen = 0.0, 0, 0.0
    for _ in range(200):  # fresh fading draws at the home positions
        state = env.state
        s, c = checks.gain_ratio_sum(cfg, state.snapshot.gains, state.tx_positions, users)
        total, count = total + s, count + c
        free = checks.free_space_gain(state.tx_positions, users, cfg.carrier_freq)
        frozen += checks.gain_ratio_sum(cfg, free, state.tx_positions, users)[0]
        env.reset()
    checks.check_gain_ratio(total, count)
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_gain_ratio(frozen, count)
    with pytest.raises(checks.CheckFailed, match="served"):
        checks.check_served(0)
    assert checks.check_served(int((metrics.user_rates > 0).sum())) > 0


def test_update_counts_and_parameters():
    cfg = load_config(ROOT / "configs" / "desk.cfg")
    assert checks.expected_updates(cfg, 30) == {"local": 30, "regional": 10, "global": 5}
    env = SpectrumSharingEnv(cfg)
    agent = agents.make_agent("hdrl", cfg)
    agents.train(agent, env, episodes=6)
    # six episodes of hdrl on desk: one local update each, a regional one
    # every third and a global one every sixth
    counted = {"local": 6, "regional": 2, "global": 1}
    checks.check_updates(cfg, 6, counted, agent.updates)
    with pytest.raises(checks.CheckFailed, match="config implies"):
        checks.check_updates(cfg, 6, {**counted, "regional": 3}, agent.updates)
    with pytest.raises(checks.CheckFailed, match="agent reports"):
        checks.check_updates(cfg, 6, counted, agent.updates + 1)
    nets = agent.net_dict()
    checks.check_finite_params(nets)
    nets["local"].params["W1"][3, 4] = np.inf
    with pytest.raises(checks.CheckFailed, match="local.W1"):
        checks.check_finite_params(nets)


def test_exhaustive_optimum_and_corrupted_eta():
    cfg = load_config(ROOT / "configs" / "desk.cfg")
    solved = agents.exhaustive_solve(cfg)
    env = SpectrumSharingEnv(cfg)
    home = np.stack([n.position for n in env.topology.transmitters()])
    users = env.topology.user_positions
    best, count, _ = checks.check_exhaustive(cfg, home, users, solved["eta"], [solved["eta"]])
    assert count == solved["candidates"] == 6561
    with pytest.raises(checks.CheckFailed, match="enumeration"):
        checks.check_exhaustive(cfg, home, users, solved["eta"] * (1 + 1e-6), [solved["eta"]])
    with pytest.raises(checks.CheckFailed, match="off the optimum"):
        checks.check_exhaustive(cfg, home, users, solved["eta"], [solved["eta"], best * 0.99])
