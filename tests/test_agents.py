import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import specshare.ppo
from reference_loops import batch_of
from specshare.agents import (
    AGENT_KINDS,
    SearchRefusedError,
    count_joint_candidates,
    evaluate,
    exhaustive_solve,
    make_agent,
    obs_dims,
    slots_to_region,
    train,
)
from specshare.allocation import AllocationState, validate
from specshare.config import ScenarioConfig, config_from_dict
from specshare.env import SpectrumSharingEnv
from specshare.ppo import forward, mode_action
from topo_helpers import small_scenarios


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


def _decided_stacks(agent, obs) -> list:
    """Each policy slot with the stacked observation it decides in one
    exploring step at t = 0, where every tier is due."""
    seen = []
    for slot in agent.slots.values():

        def recording(x, rng, explore, slot=slot, decide=slot.decide):
            seen.append((slot, x))
            return decide(x, rng, explore)

        slot.decide = recording
    agent.act(obs, 0, explore=True)
    for slot in agent.slots.values():
        del slot.decide
    return seen


@settings(derandomize=True, deadline=None, max_examples=20)
@example(cfg=_cfg())
@example(cfg=ScenarioConfig())
@given(cfg=small_scenarios())
def test_obs_dims_match_env_vectors(cfg):
    # the observations have the obs_dims widths, and every learned policy
    # slot decides in one layout: greedy and exploring give the same (S·B, ·)
    # shapes and dtypes, the greedy rows those of mode_action on each batch
    # in entity order
    env = SpectrumSharingEnv(cfg)
    obs = env.reset(seed=0)
    dims = obs_dims(cfg)
    assert obs["global"].shape == (dims["global"],)
    assert obs["regional"].shape == (cfg.num_haps, dims["regional"])
    assert obs["local"].shape == (cfg.num_transmitters, dims["local"])
    for kind in ("sadrl", "madrl", "hdrl"):
        agent = make_agent(kind, cfg)
        stacks = _decided_stacks(agent, obs)
        assert len(stacks) == len(agent.slots)
        for slot, x in stacks:
            greedy = slot.decide(x, agent.rng, False)
            exploring = slot.decide(x, agent.rng, True)
            stacked = forward(slot.net, x)
            S, B = x.shape[:2]
            for name in ("cat", "cont"):
                a, b = getattr(greedy, name), getattr(exploring, name)
                assert a.ndim == 2 and a.shape[0] == S * B, (kind, name)
                assert (a.shape, a.dtype) == (b.shape, b.dtype), (kind, name)
                want = np.concatenate([getattr(mode_action(batch_of(stacked, s)), name) for s in range(S)])
                got = (a.dtype, a.shape, a.tobytes())
                assert got == (want.dtype, want.shape, want.tobytes()), (kind, name)


def test_slot_decoders():
    g = slots_to_region(np.array([0, 2, 1]), 2)  # beam choices to the global grant
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
            obs, rewards, _, _, _ = env.step(bundle)
            agent.record(rewards)
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
    with pytest.raises(SearchRefusedError, match="fading_frozen"):
        exhaustive_solve(cfg)


def test_exhaustive_cap_guard():
    cfg = ScenarioConfig()
    cfg.fading_frozen = True
    with pytest.raises(SearchRefusedError, match="search space too large"):
        exhaustive_solve(cfg)


def test_exhaustive_solution_structure(desk_solution):
    cfg, sol = desk_solution
    assert sol["candidates"] == 9**4
    assert sol["global"].shape == (cfg.beams, cfg.num_subbands)
    assert sol["regional"].shape == (cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands)
    state = AllocationState.zeros(cfg)
    state.global_alloc = sol["global"]
    state.regional[...] = sol["regional"].reshape(cfg.num_transmitters, cfg.num_subbands)
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


def test_slot_end_episode_returns_the_update_report(monkeypatch):
    # each slot hands back the report of the update it ran, with the last
    # minibatch's pre-clip gradient norm, and None on an episode without one
    cfg = _cfg(steps_per_episode=20)
    cfg.ppo.batch_size, cfg.ppo.minibatch_size, cfg.ppo.sgd_iters = 500, 250, 1
    env, agent = SpectrumSharingEnv(cfg), make_agent("hdrl", cfg)
    real_update, made = specshare.ppo.ppo_update, []

    def keeping_update(*args, **kwargs):
        made.append(real_update(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(specshare.ppo, "ppo_update", keeping_update)
    returned = {name: [] for name in agent.slots}
    for name, slot in agent.slots.items():

        def end(*args, _end=slot.end_episode, _got=returned[name]):
            _got.append(_end(*args))
            return _got[-1]

        monkeypatch.setattr(slot, "end_episode", end)
    episodes = 10
    train(agent, env, episodes=episodes)
    want = _expected_updates("hdrl", cfg, episodes)
    for name, got in returned.items():
        ran = [i for i, report in enumerate(got) if report is not None]
        period = episodes // want[name]
        assert ran == list(range(period - 1, episodes, period)), name
    reports = [report for got in returned.values() for report in got if report is not None]
    assert sorted(map(id, reports)) == sorted(map(id, made))
    assert agent.updates == len(made) == sum(want.values())
    assert all(np.isfinite(r.grad_norm) and r.grad_norm > 0.0 for r in made)


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


@pytest.mark.parametrize("kind", ["sadrl", "madrl", "hdrl"])
def test_loaded_weights_stay_in_the_vector_adam_updates(tmp_path, kind):
    # a load that rebound a parameter would leave the forward reading the
    # loaded array while Adam steps the net's flat vector
    cfg = _cfg()
    source = make_agent(kind, cfg)
    rng = np.random.default_rng(5)
    for net in source.net_dict().values():
        for value in net.params.values():
            value += rng.normal(scale=0.1, size=value.shape)
    path = tmp_path / "ckpt.json"
    source.save(path)
    agent = make_agent(kind, cfg)
    agent.load(path)
    for name, slot in agent.slots.items():
        net, twin = slot.net, source.slots[name]
        for key, value in net.params.items():
            # an empty view (a tier with no continuous slots) shares no memory
            assert value.size == 0 or np.shares_memory(value, net.flat), (name, key)
        assert net.flat.tobytes() == twin.net.flat.tobytes(), name
        # one update of the loaded net equals the update of the net built with those weights
        obs = rng.normal(size=(20, net.input_dim))
        action, logp = specshare.ppo.sample_action(specshare.ppo.forward(net, obs), rng)
        batch = {
            "obs": obs, "cat": action.cat, "cont": action.cont, "logp": logp,
            "adv": rng.normal(size=20), "ret": rng.normal(size=20),
        }
        loaded = net.flat.copy()
        for s in (slot, twin):
            specshare.ppo.ppo_update(s.net, batch, cfg.ppo, np.random.default_rng(3), s.opt)
        assert not np.array_equal(net.flat, loaded), name
        assert net.flat.tobytes() == twin.net.flat.tobytes(), name
        assert all(np.array_equal(net.params[k], twin.net.params[k]) for k in net.params), name


def _edited_checkpoint(tmp_path, edit, kind="hdrl"):
    """A checkpoint of a ``kind`` agent edited by ``edit(nets)``; its weights
    differ from those of a new agent of ``cfg`` (another seed, same scenario)."""
    cfg = _cfg()
    path = tmp_path / "ckpt.json"
    make_agent(kind, _cfg(seed=77)).save(path)
    blob = json.loads(path.read_text())
    edit(blob["nets"])
    path.write_text(json.dumps(blob))
    return cfg, path


def _assert_load_refused(agent, path, match):
    """``agent.load(path)`` raises ValueError matching ``match`` and leaves every weight as it was."""
    before = {name: net.flat.copy() for name, net in agent.net_dict().items()}
    with pytest.raises(ValueError, match=match):
        agent.load(path)
    for name, net in agent.net_dict().items():
        assert net.flat.tobytes() == before[name].tobytes(), name


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


def test_checkpoint_missing_a_parameter_refused(tmp_path):
    cfg, path = _edited_checkpoint(tmp_path, lambda nets: nets["policy"]["params"].pop("W1"), "sadrl")
    _assert_load_refused(
        make_agent("sadrl", cfg), path, "net 'policy' parameter 'W1' exists only in the agent"
    )


def test_checkpoint_with_an_unknown_parameter_refused(tmp_path):
    # the odd net is the last one, so a load that assigned net by net would
    # already have written the first two
    def add_a_key(nets):
        nets["local"]["params"]["W2"] = nets["local"]["params"]["W1"]

    cfg, path = _edited_checkpoint(tmp_path, add_a_key)
    _assert_load_refused(
        make_agent("hdrl", cfg), path, "net 'local' parameter 'W2' exists only in the checkpoint"
    )


def test_evaluate_output_structure():
    cfg = _cfg()
    env = SpectrumSharingEnv(cfg)
    res = evaluate(make_agent("random", cfg), env, episodes=2)
    assert len(res["episodes"]) == 2
    assert len(res["decision_time_s"]) == 2
    assert all(dt > 0 for dt in res["decision_time_s"])
    assert len(res["steps"]) == 2 * cfg.steps_per_episode
    n = cfg.steps_per_episode
    assert [s["episode"] for s in res["steps"]] == [0] * n + [1] * n
    assert [s["step"] for s in res["steps"]] == list(range(n)) * 2
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
