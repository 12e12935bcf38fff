"""Birth-death analysis of the guard-channel loss system.

Occupancy 0..N is a birth-death chain: the birth rate at state i is the sum
of the rates of classes that still fit (N_m > i), the death rate is i*mu.
The product form is evaluated as a cumulative sum in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import ChannelPartition, SystemConfig


@dataclass(frozen=True)
class SteadyState:
    probs: np.ndarray               # P_0..P_N
    limits: tuple[int, ...]         # N_m used
    rates: tuple[float, ...]
    mu: float


@dataclass(frozen=True)
class BlockingReport:
    per_class: tuple[float, ...]    # B_m
    utilization: float              # E[occupied] / N
    offered_load: float             # total rate / mu, in Erlangs


def steady_state(config: SystemConfig, partition: ChannelPartition, rates) -> SteadyState:
    """Steady-state occupancy distribution of the birth-death chain.

    log P_i = sum over k < i of log birth(k) - log((k+1)*mu), up to a
    constant. The weights are shifted by their maximum before exp, so no N
    or load overflows, and a zero birth rate gives exact zeros above it.
    """
    rates = tuple(float(r) for r in rates)
    limits = partition.limits
    n = config.n_channels
    mu = config.mu
    # rate_m lands at index N_m; birth(i) is the sum over N_m > i
    at_limit = np.bincount(limits, weights=rates, minlength=n + 1)
    birth = np.cumsum(at_limit[::-1])[::-1][1:]
    with np.errstate(divide="ignore"):
        steps = np.log(birth) - np.log(np.arange(1, n + 1) * mu)
    logw = np.concatenate(([0.0], np.cumsum(steps)))
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return SteadyState(probs=probs, limits=limits, rates=rates, mu=mu)


def blocking_probabilities(ss: SteadyState, partition: ChannelPartition) -> BlockingReport:
    """Per-class blocking B_m = sum of P_i over i >= N_m, plus utilization."""
    if ss.limits != partition.limits:
        raise ValueError(
            f"steady state solved for limits {ss.limits}, partition has {partition.limits}"
        )
    probs = ss.probs
    n = len(probs) - 1
    per_class = tuple(float(probs[n_m:].sum()) for n_m in partition.limits)
    utilization = float(np.arange(n + 1) @ probs) / n
    return BlockingReport(
        per_class=per_class,
        utilization=utilization,
        offered_load=sum(ss.rates) / ss.mu,
    )


def erlang_b(servers: int, offered: float) -> float:
    """Erlang-B blocking via the standard recurrence."""
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    if offered < 0:
        raise ValueError(f"offered load must be >= 0, got {offered}")
    b = 1.0
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    return b
