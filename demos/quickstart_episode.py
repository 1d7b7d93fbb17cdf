#!/usr/bin/env python3
"""Walk one episode of the layered spectrum environment with an untrained agent.

Shows the multi-timescale cadence: the satellite re-plans every 50 steps, the
HAPs every 10, and the ground nodes every step. Prints a compact line per
decision boundary plus a summary of where the spectrum ended up.
"""

import argparse

import numpy as np

from specshare import ScenarioConfig, SpectrumSharingEnv, make_agent, validate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--agent", default="hdrl", help="agent kind (default: hdrl)")
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = ScenarioConfig()
    cfg.steps_per_episode = args.steps
    cfg.seed = args.seed

    env = SpectrumSharingEnv(cfg)
    agent = make_agent(args.agent, cfg)

    ds, dh, dl = cfg.decision_intervals
    print(f"scenario: {cfg.beams} beams, {cfg.num_haps} HAPs, {cfg.num_regions} regions, "
          f"{cfg.num_transmitters} transmitters, {cfg.num_users} users, "
          f"{cfg.num_subbands} subbands")
    print(f"decision intervals: satellite every {ds}, HAP every {dh}, ground every {dl}\n")

    obs = env.reset(seed=args.seed)
    agent.begin_episode(env)
    cumulative = 0.0
    for t in range(cfg.steps_per_episode):
        bundle = agent.act(obs, t, explore=True)
        obs, rewards, _, _, _ = env.step(bundle)
        agent.record(rewards)
        cumulative += rewards["r_s"]

        # the environment validates internally; double-check from the outside
        assert validate(env.state.alloc, cfg) is None

        m = env.state.metrics
        if cfg.global_due(t):
            grants = env.state.alloc.global_alloc.sum()
            print(f"t={t:4d}  satellite re-plan: {grants:.0f}/{cfg.num_subbands} "
                  f"subbands granted to beams")
        if cfg.regional_due(t):
            active = env.state.alloc.beta.sum()
            print(f"t={t:4d}  eta={m.eta:6.3f} bit/s/Hz  "
                  f"fairness={m.fairness:5.3f}  active pairs={active:.0f}  "
                  f"reward={rewards['r_s']:6.3f}")
    agent.end_episode()

    print(f"\ncumulative system reward over {cfg.steps_per_episode} steps: {cumulative:.2f}")
    rates = env.state.metrics.user_rates
    print(f"final step user rates: min={rates.min() / 1e6:.2f}  "
          f"median={np.median(rates) / 1e6:.2f}  max={rates.max() / 1e6:.2f} Mbit/s")


if __name__ == "__main__":
    main()
