"""The benchmark's hooks into the package stay where it looks for them.

``perfbench/tracing.py`` wraps each traced function under the name its
callers look up at call time (a module attribute, or a method in a class's
own ``__dict__``), and ``perfbench/run.py`` counts hdrl's PPO updates per
tier by replacing ``specshare.ppo.ppo_update``.  These tests read the
tracing table without running the benchmark and check both hooks.
"""

import importlib.util
from pathlib import Path

import specshare
import specshare.ppo
from specshare.agents import make_agent, train
from specshare.config import load_config
from specshare.env import SpectrumSharingEnv

ROOT = Path(__file__).resolve().parents[1]


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_site_resolves_on_the_package():
    for name, sites in _traced():
        for site in sites:
            owner = getattr(specshare, site[0])
            attr = site[-1]
            if len(site) == 3:
                cls = getattr(owner, site[1])
                assert isinstance(cls, type), name
                # the tracer wraps the class's own attribute, not an inherited one
                assert callable(cls.__dict__.get(attr)), f"{name}: {site[1]} does not define {attr}"
                continue
            fn = getattr(owner, attr)
            assert callable(fn), name
            # a function traced where another module imported it is the same object
            home, _, home_attr = name.partition(".")
            if "." not in home_attr:
                assert fn is getattr(getattr(specshare, home), home_attr), f"{name} at {site}"


def test_hdrl_training_calls_the_ppo_module_update(monkeypatch):
    cfg = load_config(ROOT / "configs" / "desk.cfg")
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("hdrl", cfg)
    called = []

    def stub_update(net, *args, **kwargs):
        called.append(net)
        return "report"  # a slot counts an update by the report it returns

    monkeypatch.setattr(specshare.ppo, "ppo_update", stub_update)
    # one desk episode fills the local tier's batch (6 nodes x 100 steps = batch_size)
    train(agent, env, episodes=1)
    assert called == [agent.net_l]
    assert agent.updates == 1
