"""The benchmark's workloads: each (workload, seed) pair maps to one fixed
config file and one `qosguard` command line.

The sizes are chosen so that one CLI invocation runs for 2-3 s on a 2-core
machine, and a run repeats that same invocation until its time is up: about
twelve invocations in a 36 s run, whose median is steadier than one long one.
"""

from __future__ import annotations

from dataclasses import dataclass

RATIO = (3, 4, 2, 1)
HOLDING_TIME = 120.0
MU = 1.0 / HOLDING_TIME
WARMUP = 0.1
TRACE_STRIDE = 1000

# the paper's closed loop: N=100, Gamma=10, window 100, 100 Erlangs offered
SIM_CHANNELS = 100
SIM_GUARD = 10
SIM_WINDOW = 100
SIM_ERLANGS = 100.0
SIM_ARRIVALS = {"sim-dynamic": 100_000, "sim-sharing-events": 150_000}

# the analytic sweep: N=1000, Gamma=100, light load to overload
ANA_CHANNELS = 1000
ANA_GUARD = 100
ANA_POINTS = 1000
ANA_LOW, ANA_HIGH = 0.6, 1.2   # offered load as a share of N

NAMES = ("sim-dynamic", "sim-sharing-events", "analyze-sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                          # qosguard CLI mode
    config_text: str
    cli_args: tuple[str, ...]          # extra CLI arguments, the seed among them
    channels: int
    guard: int
    rates: tuple[float, ...] | None    # per-class rates of a simulation
    grid: tuple[float, ...] | None     # lambda_total grid of the sweep
    arrivals: int                      # simulated arrivals per invocation
    items: int                         # arrivals or sweep points per invocation


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def sim_rates() -> tuple[float, ...]:
    total = sum(RATIO)
    return tuple(r / total * SIM_ERLANGS * MU for r in RATIO)


def sweep_grid() -> tuple[float, ...]:
    """lambda_total grid from 0.6 N to 1.2 N Erlangs. `qosguard analyze`
    takes no seed, so the grid is the same for every seed."""
    low = ANA_CHANNELS * ANA_LOW * MU
    high = ANA_CHANNELS * ANA_HIGH * MU
    step = (high - low) / (ANA_POINTS - 1)
    return tuple(low + k * step for k in range(ANA_POINTS))


def make(name: str, seed: int) -> Workload:
    if name == "analyze-sweep":
        grid = sweep_grid()
        text = (
            f"[system]\nchannels = {ANA_CHANNELS}\nguard = {ANA_GUARD}\n"
            f"holding_time = {HOLDING_TIME!r}\n"
            f"[traffic]\nratio = {_floats(RATIO)}\n"
            f"[sweep]\nlambda_total = {_floats(grid)}\n"
        )
        return Workload(name, "analyze", text, (), ANA_CHANNELS, ANA_GUARD,
                        None, grid, 0, ANA_POINTS)
    if name not in SIM_ARRIVALS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rates = sim_rates()
    arrivals = SIM_ARRIVALS[name]
    dynamic = name == "sim-dynamic"
    text = (
        f"[system]\nchannels = {SIM_CHANNELS}\nguard = {SIM_GUARD}\n"
        f"holding_time = {HOLDING_TIME!r}\nwindow = {SIM_WINDOW}\n"
        f"[traffic]\nrates = {_floats(rates)}\n"
        f"[simulation]\narrivals = {arrivals}\nwarmup = {WARMUP!r}\n"
        f"policy = {'dynamic' if dynamic else 'sharing'}\n"
        f"bypass_estimator = false\ntrace_stride = {TRACE_STRIDE}\n"
        f"events = {'false' if dynamic else 'true'}\n"
    )
    # SeedSequence takes only non-negative integers
    cli_seed = seed % 2**32
    return Workload(name, "simulate", text, ("--seed", str(cli_seed)), SIM_CHANNELS,
                    SIM_GUARD, rates, None, arrivals, arrivals)
