"""Dynamic shrinkage estimation of minimum-variance portfolio weights.

The package combines sample minimum-variance weights with a target
portfolio period by period, choosing the combination weight that
minimizes the true out-of-sample variance under large-dimensional
asymptotics. Each name is imported from the module that defines it:

- ``core``: sample moments, minimum-variance weights, losses, pooled
  statistics and the package's errors;
- ``nonoverlap``: the shrinkage recursion over fresh or extending
  windows; ``overlap``: its limit forms and entry point for extending ones;
- ``strategies``: the seven strategies as one weight-sequence driver;
- ``sim``: population models, scenario generation and the Monte Carlo
  experiment engine;
- ``backtest``: rebalancing schedules, fitted weights and performance;
- ``rmt``: the random-matrix limits and their Monte Carlo checks;
- ``dataio``: the returns, weights and output file formats;
- ``cli``: the command-line front end.

This file imports nothing, so ``import gmvshrink.cli`` pins the
linear-algebra thread pools before numpy loads.
"""

__version__ = "0.1.0"
