"""Reinforcement-learning substrate: numpy neural networks, a Gym-style
environment API, contextual bandits, NN Q-learning, delayed-reward
replay, log-curve generation and PCA impact analysis.

This package replaces the paper's Keras + OpenAI Gym dependencies with
self-contained implementations of exactly the pieces TunIO's two agents
use.
"""

from .bandit import NeuralContextualBandit
from .curves import LogCurve, LogCurveGenerator
from .env import Box, Discrete, Env
from .guardrails import (
    AgentGuard,
    CheckpointError,
    GuardrailMonitor,
    GuardrailTrip,
    LossDivergenceMonitor,
    corrupt_network,
    network_weight_issue,
    validate_agent_checkpoint,
)
from .nn import ACTIVATIONS, Adam, Dense, MLP
from .pca import (
    PCAResult,
    correlation_impact,
    parameter_impact,
    principal_components,
)
from .qlearning import QLearningAgent, QLearningConfig
from .replay import DelayedRewardBuffer, ReplayBuffer, Transition

__all__ = [
    "NeuralContextualBandit",
    "AgentGuard",
    "CheckpointError",
    "GuardrailMonitor",
    "GuardrailTrip",
    "LossDivergenceMonitor",
    "corrupt_network",
    "network_weight_issue",
    "validate_agent_checkpoint",
    "LogCurve",
    "LogCurveGenerator",
    "Box",
    "Discrete",
    "Env",
    "ACTIVATIONS",
    "Adam",
    "Dense",
    "MLP",
    "PCAResult",
    "correlation_impact",
    "parameter_impact",
    "principal_components",
    "QLearningAgent",
    "QLearningConfig",
    "DelayedRewardBuffer",
    "ReplayBuffer",
    "Transition",
]
