"""Spectrum sharing simulator for layered satellite / HAP / terrestrial networks.

The package models a leased spectrum pool that a satellite splits across
beams, high-altitude platforms split across their regions' ground nodes,
and ground nodes (terrestrial base stations and UAVs) apply to serve users.
It ships a multi-timescale environment, a small numpy PPO implementation,
five allocation agents, and a CLI harness for training, evaluation,
benchmarking, and trace replay.
"""

__version__ = "0.1.0"

from .config import ConfigError, PpoConfig, RewardWeights, ScenarioConfig, load_config
from .topology import Node, Topology, build_topology
from .allocation import (
    AllocationState,
    Violation,
    clamp_local,
    validate,
)
from .channel import ChannelSnapshot, compute_snapshot, path_loss_db
from .metrics import (
    StepMetrics,
    compose_rewards,
    jain_fairness,
    qos_violation,
    sinr,
    spectral_efficiency,
    uav_penalty,
    user_rate,
)
from .env import ScheduleError, SpectrumSharingEnv, episode_summary
from .ppo import ActionSchema, PolicyNet, gae, grad_check, ppo_update
from .agents import (
    AGENT_KINDS,
    ExhaustiveAgent,
    HdrlAgent,
    MadrlAgent,
    RandomAgent,
    SadrlAgent,
    evaluate,
    exhaustive_solve,
    make_agent,
    train,
)
