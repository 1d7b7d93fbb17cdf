import json
import math

import numpy as np
import pytest

import specshare.ppo
from specshare.agents import (
    AGENT_KINDS,
    count_joint_candidates,
    evaluate,
    exhaustive_solve,
    make_agent,
    obs_dims,
    slots_to_global,
    slots_to_region,
    train,
)
from specshare.allocation import AllocationState, EnumerationCapError, validate
from specshare.config import ScenarioConfig, config_from_dict
from specshare.env import SpectrumSharingEnv


def _cfg(**overrides):
    cfg = ScenarioConfig()
    cfg.beams = 2
    cfg.haps_per_beam = 1
    cfg.regions_per_hap = 1
    cfg.uavs_per_region = 1
    cfg.users_per_region = 4
    cfg.num_subbands = 4
    cfg.fading_frozen = True
    cfg.steps_per_episode = 8
    cfg.decision_intervals = (4, 2, 1)
    cfg.ppo.batch_size = 16
    cfg.ppo.minibatch_size = 8
    cfg.ppo.sgd_iters = 2
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def desk_solution():
    cfg = _cfg()
    return cfg, exhaustive_solve(cfg)


def test_obs_dims_match_env_vectors():
    for cfg in (_cfg(), ScenarioConfig()):
        env = SpectrumSharingEnv(cfg)
        obs = env.reset(seed=0)
        dims = obs_dims(cfg)
        assert obs["global"].shape == (dims["global"],)
        assert obs["regional"][0].shape == (dims["regional"],)
        assert obs["local"][0].shape == (dims["local"],)


def test_slot_decoders():
    g = slots_to_global(np.array([0, 2, 1]), beams=2)
    assert g.shape == (2, 3)
    assert g[1, 1] == 1 and g[0, 2] == 1
    assert g.sum() == 2
    r = slots_to_region(np.array([3, 0, 0, 1]), nodes=3)
    assert r.shape == (3, 4)
    assert r[2, 0] == 1 and r[0, 3] == 1
    assert r.sum() == 2


def test_make_agent_kinds():
    cfg = _cfg()
    for kind in AGENT_KINDS:
        agent = make_agent(kind, cfg)
        assert agent.kind == kind
    with pytest.raises(ValueError, match="unknown agent kind"):
        make_agent("greedy", cfg)


@pytest.mark.parametrize("kind", ["random", "sadrl", "madrl", "hdrl"])
def test_agent_runs_a_full_episode_with_feasible_actions(kind):
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    agent = make_agent(kind, cfg)
    for explore in (True, False):
        obs = env.reset(seed=0)
        agent.begin_episode(env)
        for t in range(cfg.steps_per_episode):
            bundle = agent.act(obs, t, explore=explore)
            obs, rewards, _, truncated, _ = env.step(bundle)
            agent.record(rewards, done=truncated)
            assert validate(env.state.alloc, cfg) is None
        agent.end_episode()


def test_non_trainable_agents_refuse_train():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    for kind in ("random", "exhaustive"):
        with pytest.raises(ValueError, match="not trainable"):
            train(make_agent(kind, cfg), env, episodes=1)


def test_candidate_counting():
    # per subband: idle, or one of 2 beams with one of (3 nodes + none)
    # assignments in that beam's single region -> 1 + 2 * 4 = 9
    assert count_joint_candidates(_cfg()) == 9**4
    big = ScenarioConfig()
    assert count_joint_candidates(big) == (1 + 2 * 4**2) ** 10


def test_exhaustive_requires_frozen_fading():
    cfg = _cfg(fading_frozen=False)
    with pytest.raises(ValueError, match="fading_frozen"):
        exhaustive_solve(cfg)


def test_exhaustive_cap_guard():
    cfg = ScenarioConfig()
    cfg.fading_frozen = True
    with pytest.raises(EnumerationCapError, match="search space too large"):
        exhaustive_solve(cfg)


def test_exhaustive_solution_structure(desk_solution):
    cfg, sol = desk_solution
    assert sol["candidates"] == 9**4
    assert sol["global"].shape == (cfg.beams, cfg.num_subbands)
    assert set(sol["regional"]) == set(range(cfg.num_regions))
    state = AllocationState.zeros(cfg)
    state.global_alloc = sol["global"]
    for region in range(cfg.num_regions):
        m = cfg.nodes_per_region
        state.regional[region * m : (region + 1) * m] = sol["regional"][region]
    assert validate(state, cfg) is None
    assert sol["eta"] > 0.0
    assert 0.0 < sol["fairness"] <= 1.0


def test_exhaustive_eta_agrees_with_env_replay(desk_solution):
    # the solver's internal rate arithmetic must match the environment's
    cfg, sol = desk_solution
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("exhaustive", cfg)
    obs = env.reset(seed=0)
    agent.begin_episode(env)
    bundle = agent.act(obs, 0, explore=False)
    _, _, _, _, metrics = env.step(bundle)
    assert metrics.eta == pytest.approx(sol["eta"], rel=1e-12)
    assert metrics.fairness == pytest.approx(sol["fairness"], rel=1e-12)


def test_exhaustive_dominates_random_allocations(desk_solution):
    cfg, sol = desk_solution
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("random", cfg)
    best_random = 0.0
    for episode in range(10):
        obs = env.reset(seed=episode)
        agent.begin_episode(env)
        bundle = agent.act(obs, 0, explore=True)
        _, _, _, _, metrics = env.step(bundle)
        best_random = max(best_random, metrics.eta)
    # frozen channel: the enumerated optimum cannot lose to a random draw
    # evaluated at the same step with the same local heuristicless action set
    assert sol["eta"] >= best_random - 1e-12


@pytest.mark.parametrize("kind", ["sadrl", "madrl", "hdrl"])
def test_training_is_deterministic(kind):
    def run():
        cfg = _cfg()
        env = SpectrumSharingEnv(cfg)
        agent = make_agent(kind, cfg)
        return train(agent, env, episodes=3)

    rows_a = run()
    rows_b = run()
    assert len(rows_a) == 3
    for a, b in zip(rows_a, rows_b):
        assert a == b  # bitwise float equality, not approx
    assert set(rows_a[0]) == {"episode", "cumulative_reward", "r_avg", "eta", "fairness"}


def _expected_updates(kind, cfg, episodes):
    """PPO updates per policy after ``episodes`` training episodes.

    A policy buffers one transition per entity per decision, runs one update
    once its buffer holds its threshold and then empties it, so it updates
    every ceil(threshold / transitions per episode) episodes.  hdrl's
    regional and global thresholds are a tenth and a fiftieth of the batch
    size, at least 8.
    """
    steps, bs = cfg.steps_per_episode, cfg.ppo.batch_size
    ds, dh, _ = cfg.decision_intervals
    if kind == "hdrl":
        per_episode = {
            "global": math.ceil(steps / ds),
            "regional": cfg.num_haps * math.ceil(steps / dh),
            "local": cfg.num_transmitters * steps,
        }
        threshold = {"global": max(8, bs // 50), "regional": max(8, bs // 10), "local": bs}
    elif kind == "sadrl":
        per_episode, threshold = {"policy": steps}, {"policy": bs}
    else:
        per_episode = {f"region_{i}": steps for i in range(cfg.num_regions)}
        threshold = dict.fromkeys(per_episode, bs)
    return {p: episodes // math.ceil(threshold[p] / per_episode[p]) for p in per_episode}


@pytest.mark.parametrize("kind", ["sadrl", "madrl", "hdrl"])
def test_updates_fire_once_the_buffer_fills(kind, monkeypatch):
    cfg, episodes = _cfg(), 8
    if kind == "hdrl":
        # every tier's threshold above one episode's transitions, so the tiers
        # update at different periods: global 2, regional 3, local 5 episodes
        cfg, episodes = _cfg(steps_per_episode=20), 10
        cfg.ppo.batch_size, cfg.ppo.minibatch_size, cfg.ppo.sgd_iters = 500, 250, 1
    env = SpectrumSharingEnv(cfg)
    agent = make_agent(kind, cfg)
    name_of = {id(net): name for name, net in agent.net_dict().items()}
    counted = dict.fromkeys(name_of.values(), 0)
    real_update = specshare.ppo.ppo_update

    def counting_update(net, *args, **kwargs):
        counted[name_of[id(net)]] += 1
        return real_update(net, *args, **kwargs)

    monkeypatch.setattr(specshare.ppo, "ppo_update", counting_update)
    train(agent, env, episodes=episodes)
    want = _expected_updates(kind, cfg, episodes)
    assert min(want.values()) >= 2  # every policy updates, at its own period
    assert counted == want
    assert agent.updates == sum(want.values())


@pytest.mark.parametrize("kind", ["sadrl", "madrl", "hdrl"])
def test_checkpoint_round_trip_reproduces_greedy_policy(kind, tmp_path):
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    agent = make_agent(kind, cfg)
    train(agent, env, episodes=2)
    path = tmp_path / "ckpt.json"
    agent.save(path)

    clone = make_agent(kind, config_from_dict(cfg.to_dict()))
    clone.load(path)
    res_a = evaluate(agent, SpectrumSharingEnv(cfg), episodes=1)
    res_b = evaluate(clone, SpectrumSharingEnv(config_from_dict(cfg.to_dict())), episodes=1)
    assert res_a["eta_mean"] == res_b["eta_mean"]
    assert res_a["fairness_mean"] == res_b["fairness_mean"]
    assert res_a["cumulative_reward_mean"] == res_b["cumulative_reward_mean"]


def test_checkpoint_kind_mismatch_refused(tmp_path):
    cfg = _cfg()
    agent = make_agent("sadrl", cfg)
    path = tmp_path / "ckpt.json"
    agent.save(path)
    other = make_agent("hdrl", cfg)
    with pytest.raises(ValueError, match="kind"):
        other.load(path)


def test_checkpoint_scenario_mismatch_refused(tmp_path):
    cfg = _cfg()
    agent = make_agent("hdrl", cfg)
    path = tmp_path / "ckpt.json"
    agent.save(path)
    other = make_agent("hdrl", _cfg(num_subbands=2, decision_intervals=(4, 2, 1)))
    with pytest.raises(ValueError, match="config hash mismatch"):
        other.load(path)


def test_checkpoint_ignores_seed_differences(tmp_path):
    cfg = _cfg()
    agent = make_agent("hdrl", cfg)
    path = tmp_path / "ckpt.json"
    agent.save(path)
    other = make_agent("hdrl", _cfg(seed=77))
    other.load(path)  # same scenario, different seed: allowed
    assert other.episodes_trained == agent.episodes_trained


def test_checkpoint_round_trip_keeps_update_count(tmp_path):
    cfg = _cfg()
    agent = make_agent("hdrl", cfg)
    train(agent, SpectrumSharingEnv(cfg), episodes=2)
    assert agent.updates > 0
    path = tmp_path / "ckpt.json"
    agent.save(path)
    clone = make_agent("hdrl", cfg)
    clone.load(path)
    assert (clone.updates, clone.episodes_trained) == (agent.updates, agent.episodes_trained)


def _edited_checkpoint(tmp_path, edit):
    cfg = _cfg()
    path = tmp_path / "ckpt.json"
    make_agent("hdrl", cfg).save(path)
    blob = json.loads(path.read_text())
    edit(blob["nets"])
    path.write_text(json.dumps(blob))
    return cfg, path


def test_checkpoint_with_a_reshaped_parameter_refused(tmp_path):
    def drop_an_input(nets):
        nets["local"]["input_dim"] -= 1
        nets["local"]["params"]["W0"].pop()

    cfg, path = _edited_checkpoint(tmp_path, drop_an_input)
    agent = make_agent("hdrl", cfg)
    before = agent.net_l.params["W0"].copy()
    with pytest.raises(ValueError, match="net 'local' parameter 'W0' has shape"):
        agent.load(path)
    assert np.array_equal(agent.net_l.params["W0"], before)


def test_checkpoint_with_a_renamed_net_refused(tmp_path):
    cfg, path = _edited_checkpoint(tmp_path, lambda nets: nets.update(regional_v2=nets.pop("regional")))
    with pytest.raises(ValueError, match="net 'regional' exists only in the agent"):
        make_agent("hdrl", cfg).load(path)


def test_evaluate_output_structure():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    res = evaluate(make_agent("random", cfg), env, episodes=2)
    assert len(res["episodes"]) == 2
    assert len(res["decision_time_s"]) == 2
    assert all(dt > 0 for dt in res["decision_time_s"])
    assert len(res["steps"]) == 2 * cfg.steps_per_episode
    assert len(res["per_step_throughput"]) == 2
    assert len(res["per_step_throughput"][0]) == cfg.steps_per_episode
    assert res["eta_mean"] == pytest.approx(np.mean([e["eta"] for e in res["episodes"]]))
    assert 0.0 <= res["spectrum_utilization_mean"] <= 1.0


def test_evaluate_is_reproducible_for_fixed_seeds():
    cfg = _cfg(fading_frozen=False)
    res_a = evaluate(make_agent("random", cfg), SpectrumSharingEnv(cfg), episodes=2)
    res_b = evaluate(make_agent("random", cfg), SpectrumSharingEnv(cfg), episodes=2)
    assert res_a["eta_mean"] == res_b["eta_mean"]
    assert [s["throughput_bps"] for s in res_a["steps"]] == [
        s["throughput_bps"] for s in res_b["steps"]
    ]
