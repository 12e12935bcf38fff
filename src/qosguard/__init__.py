"""Dynamic guard-channel call admission control for multi-class traffic.

Exact birth-death analysis of per-class blocking, a deterministic
discrete-event simulator with online arrival-rate estimation, and a VLC
optical-channel companion.
"""

from .allocator import ChannelPartition, SystemConfig, compute_partition
from .markov import (
    BlockingReport,
    blocking_probabilities,
    erlang_b,
    steady_state,
)
from .simulate import SimMetrics, SimScenario, run_simulation
from .traffic import ArrivalWindow

__all__ = [
    "ArrivalWindow",
    "BlockingReport",
    "ChannelPartition",
    "SimMetrics",
    "SimScenario",
    "SystemConfig",
    "blocking_probabilities",
    "compute_partition",
    "erlang_b",
    "run_simulation",
    "steady_state",
]

__version__ = "0.1.0"
