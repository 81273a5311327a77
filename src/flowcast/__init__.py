"""Net-inflow analytics for crypto markets.

Builds hourly exchange net-inflow, return, and realized-volatility series,
runs multi-horizon predictive regressions into signed-significance
heatmaps, detects extreme-inflow events, and backtests delta-hedged call
strategies triggered by inflow percentiles. A seedable synthetic-data
generator with planted coefficients backs the verification suite.

The modules are the public API: import a name from the module that
defines it, as in ``from flowcast.regress import run_grid``.
"""

# Load every module with the package: bench/tracing.py wraps the functions of
# each traced module right after ``import flowcast`` and looks each one up in
# ``sys.modules``. Loading them is cheap, because none loads numpy (or scipy):
# each takes ``np`` from ``_lazy``, which imports numpy on its first use, so a
# command whose functions need no numpy, such as ``report``, never loads it.
from . import errors, events, ingest, options, regress, series, synth  # noqa: F401

__version__ = "0.1.0"
