#!/usr/bin/env python3
"""Trace a single link budget from transmit power to user rate, by hand.

Walks the channel model at 28 GHz: free-space path loss versus distance for
each platform altitude, the thermal noise floor for one subband, and the
resulting SINR -> rate mapping. Then cross-checks the arithmetic against a
full environment snapshot.
"""

import numpy as np

from specshare import (
    ScenarioConfig,
    SpectrumSharingEnv,
    make_agent,
    path_loss_db,
    sinr,
    user_rate,
)

F_HZ = 28e9


def main():
    print(f"free-space path loss at {F_HZ / 1e9:.0f} GHz (no shadowing, no fading):")
    for name, km in [("UAV overhead", 0.1), ("TBS across town", 1.0),
                     ("HAP", 20.0), ("LEO satellite", 550.0)]:
        print(f"  {name:18s} {km:7.1f} km  {path_loss_db(km * 1e3, F_HZ):7.2f} dB")

    cfg = ScenarioConfig()
    w = cfg.subband_bandwidth
    n0 = cfg.noise_power_w
    print(f"\none subband is {w / 1e6:.0f} MHz wide; thermal floor at "
          f"{cfg.noise_psd:.0f} dBm/Hz is {n0:.3e} W")

    # a TBS at 16 dBm through 121.4 dB of path loss, alone on its subband
    p_tx = 10 ** ((cfg.tx_power_tbs - 30) / 10)
    gain = 10 ** (-path_loss_db(1e3, F_HZ) / 10)
    # and the same station with a co-channel interferer at half the power:
    # two users' SINRs on one subband each, a (users, subbands) stack
    sinrs = sinr(gain, 1.0, p_tx, np.array([[0.0], [gain * p_tx / 2]]), n0)
    r, r_i = user_rate(sinrs, cfg.total_bandwidth, cfg.num_subbands)
    g, g_i = sinrs[:, 0]
    print(f"TBS at {cfg.tx_power_tbs:.0f} dBm, 1 km: received {gain * p_tx:.3e} W, "
          f"SINR {10 * np.log10(g):.1f} dB, rate {r / 1e6:.1f} Mbit/s")
    print(f"  with a co-channel interferer at half power: "
          f"SINR {10 * np.log10(g_i):.1f} dB, rate {r_i / 1e6:.1f} Mbit/s")

    # now let the simulator do it end to end on a frozen-fading scenario
    cfg.fading_frozen = True
    cfg.steps_per_episode = 4
    env = SpectrumSharingEnv(cfg)
    agent = make_agent("random", cfg)
    obs = env.reset(seed=1)
    agent.begin_episode(env)
    for t in range(cfg.steps_per_episode):
        obs, *_ = env.step(agent.act(obs, t))
    m = env.state.metrics
    served = m.user_rates > 0
    print(f"\nfull snapshot under a random allocation: {served.sum()} of "
          f"{cfg.num_users} users served")
    print(f"  best user {m.user_rates.max() / 1e6:8.2f} Mbit/s")
    print(f"  network spectral efficiency {m.eta:.3f} bit/s/Hz, "
          f"Jain fairness {m.fairness:.3f}")
    gains = env.state.snapshot.gains
    print(f"  channel gains span {10 * np.log10(gains.min()):.1f} dB "
          f"to {10 * np.log10(gains.max()):.1f} dB across "
          f"{gains.size} transmitter-user links")


if __name__ == "__main__":
    main()
