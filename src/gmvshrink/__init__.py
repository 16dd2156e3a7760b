"""Dynamic shrinkage estimation of minimum-variance portfolio weights.

The package combines sample minimum-variance weights with a target
portfolio period by period, choosing the combination weight that
minimizes the true out-of-sample variance under large-dimensional
asymptotics. Non-overlapping windows (each period estimated from fresh
data) and overlapping windows (each period pooling everything seen so
far) are both supported, together with a Monte Carlo experiment engine,
a rebalancing backtest and a verification harness for the underlying
random-matrix limits.

Importing this package is deliberately lightweight: submodules (and
numpy with them) load on first attribute access, so the command-line
entry point can pin linear-algebra thread pools before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # core statistics and errors
    "DimensionError": "core",
    "SingularityError": "core",
    "InsufficientSampleError": "core",
    "DegenerateInputError": "core",
    "sample_moments": "core",
    "gmv_weights": "core",
    "sample_gmv_weights": "core",
    "portfolio_variance": "core",
    "relative_loss": "core",
    "PooledStats": "core",
    # strategy driver
    "STRATEGY_IDS": "strategies",
    "weight_sequence": "strategies",
    # random-matrix kernels
    "GramSpec": "rmt",
    "resolvent_limits": "rmt",
    "cross_resolvent_constant": "rmt",
    "direction_vector": "rmt",
    "mc_quadratic_form": "rmt",
    # simulation engine
    "PopulationModel": "sim",
    "ScenarioConfig": "sim",
    "LossTable": "sim",
    "LossRow": "sim",
    "SCENARIOS": "sim",
    "build_population": "sim",
    "generate": "sim",
    "run_experiment": "sim",
    # backtest engine
    "RebalanceSchedule": "backtest",
    "PerfReport": "backtest",
    "fit_weights": "backtest",
    "evaluate_weights": "backtest",
    "run_backtest": "backtest",
    "performance_measures": "backtest",
    "turnover": "backtest",
    "wealth_and_drawdown": "backtest",
    # file formats
    "DataFileError": "dataio",
    "read_returns_csv": "dataio",
    "write_loss_table": "dataio",
    "write_perf_report": "dataio",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
