"""Per-layer spans recorded from outside the simulator.

``Tracer.install`` replaces each traced function with a wrapper under the
name its caller looks up at call time: a module attribute (for example
``specshare.env.compute_step_metrics``, which ``env.step`` calls) or a
class attribute (methods such as ``SpectrumSharingEnv.step``).  Each call
records one span: the function's name, its parent span, start and end.
Spans stay in memory; ``summary`` turns them into self time (a span's
duration minus the part its child spans cover) and call counts per name.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (traced name, [(module, attribute) or (module, class, attribute) where the
# callers look it up]).  Modules are given relative to the package.
TRACED = (
    ("config.load_config", [("config", "load_config")]),
    ("topology.build_topology", [("env", "build_topology"), ("agents", "build_topology")]),
    ("env.SpectrumSharingEnv", [("env", "SpectrumSharingEnv", "__init__")]),
    ("agents.make_agent", [("agents", "make_agent")]),
    ("env.reset", [("env", "SpectrumSharingEnv", "reset")]),
    ("env.step", [("env", "SpectrumSharingEnv", "step")]),
    ("channel.link_gains", [("channel", "link_gains"), ("agents", "link_gains")]),
    ("channel.associate_users", [("channel", "associate_users"), ("agents", "associate_users")]),
    (
        "channel.co_channel_interference",
        [("channel", "co_channel_interference"), ("agents", "co_channel_interference")],
    ),
    ("metrics.compute_step_metrics", [("env", "compute_step_metrics")]),
    ("allocation.clamp_local", [("env", "clamp_local")]),
    ("allocation.validate", [("env", "validate")]),
    ("agents.act.random", [("agents", "RandomAgent", "act")]),
    ("agents.act.exhaustive", [("agents", "ExhaustiveAgent", "act")]),
    ("agents.act.sadrl", [("agents", "SadrlAgent", "act")]),
    ("agents.act.madrl", [("agents", "MadrlAgent", "act")]),
    ("agents.act.hdrl", [("agents", "HdrlAgent", "act")]),
    ("agents.exhaustive_solve", [("agents", "exhaustive_solve")]),
    ("ppo.forward", [("agents", "forward")]),
    ("ppo.mode_action", [("agents", "mode_action")]),
    ("ppo.sample_action", [("agents", "sample_action")]),
    (
        "agents.record",
        [("agents", cls, "record") for cls in ("RandomAgent", "ExhaustiveAgent", "SadrlAgent", "MadrlAgent", "HdrlAgent")],
    ),
    (
        "agents.end_episode",
        [("agents", cls, "end_episode") for cls in ("RandomAgent", "ExhaustiveAgent", "SadrlAgent", "MadrlAgent", "HdrlAgent")],
    ),
    # the agents import ppo_update inside end_episode, from the ppo module
    ("ppo.ppo_update", [("ppo", "ppo_update")]),
    ("ppo.loss_and_grads", [("ppo", "loss_and_grads")]),
    ("ppo.Adam.step", [("ppo", "Adam", "step")]),
    ("ppo.Trajectory.finalize", [("ppo", "Trajectory", "finalize")]),
)

NAMES = tuple(name for name, _ in TRACED)


class Tracer:
    """Records a span per call of every function in ``TRACED``."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]  # stack of open span indices; -1 is the root
        self._undo: list = []

    def _wrap(self, name_id: int, fn):
        name, parent, start, end, open_ = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every traced function where ``package``'s modules look it up."""
        for name_id, (_, sites) in enumerate(TRACED):
            for site in sites:
                owner = getattr(package, site[0])
                if len(site) == 3:
                    owner = getattr(owner, site[1])
                attr = site[-1]
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Self seconds and calls per traced name, and per parent -> child edge."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        k = len(NAMES)
        per_name = {
            "self_s": np.bincount(name, weights=self_time, minlength=k),
            "calls": np.bincount(name, minlength=k),
            "total_s": np.bincount(name, weights=dur, minlength=k),
        }
        parent_name = np.where(nested, name[np.maximum(parent, 0)], k)  # k marks the root
        edge = parent_name * (k + 1) + name
        edge_calls = np.bincount(edge, minlength=(k + 1) * (k + 1))
        edge_self = np.bincount(edge, weights=self_time, minlength=(k + 1) * (k + 1))
        edges = {}
        for e in np.nonzero(edge_calls)[0]:
            p, c = divmod(int(e), k + 1)
            edges[f"{'(root)' if p == k else NAMES[p]} > {NAMES[c]}"] = {
                "calls": int(edge_calls[e]),
                "self_s": float(edge_self[e]),
            }
        return {
            "functions": {
                n: {key: (int(v[i]) if key == "calls" else float(v[i])) for key, v in per_name.items()}
                for i, n in enumerate(NAMES)
            },
            "edges": edges,
            "spans": len(dur),
        }
