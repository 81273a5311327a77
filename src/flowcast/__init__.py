"""Net-inflow analytics for crypto markets.

Builds hourly exchange net-inflow, return, and realized-volatility series,
runs multi-horizon predictive regressions into signed-significance
heatmaps, detects extreme-inflow events, and backtests delta-hedged call
strategies triggered by inflow percentiles. A seedable synthetic-data
generator with planted coefficients backs the verification suite.
"""

from .errors import (
    EstimationError,
    FlowcastError,
    ValidationError,
)
from .events import EventHit, detect_extremes, extract_window, threshold_percentile
from .ingest import (
    Asset,
    BarSeries,
    FlowSeries,
    OptionQuote,
    QuoteSeries,
    parse_bars,
    parse_flows,
    parse_option_quotes,
)
from .options import (
    BucketKey,
    BucketStats,
    CostParams,
    TradeOutcome,
    breakeven_slippage,
    bucket_stats,
    call_price,
    initial_capital,
    net_pnl,
    otm_range,
    trade,
)
from .regress import (
    HeatmapCell,
    MarketData,
    OlsFit,
    ols_fit,
    run_grid,
    significance,
)
from .series import (
    AlignedSample,
    NetInflowSeries,
    ReturnSeries,
    VolSeries,
    align,
    net_inflows,
    realized_vol,
    returns,
)
from .synth import (
    GridPlants,
    OptionChainSpec,
    SynthConfig,
    gen_flows_and_prices,
    gen_market,
    gen_option_chain,
)

__version__ = "0.1.0"

__all__ = [
    "Asset", "BarSeries", "FlowSeries", "OptionQuote",
    "QuoteSeries", "parse_bars", "parse_flows", "parse_option_quotes",
    "NetInflowSeries", "ReturnSeries", "VolSeries", "AlignedSample",
    "net_inflows", "returns", "realized_vol", "align",
    "OlsFit", "HeatmapCell", "MarketData", "ols_fit", "significance",
    "run_grid",
    "EventHit", "detect_extremes", "extract_window", "threshold_percentile",
    "CostParams", "TradeOutcome", "BucketKey", "BucketStats", "call_price",
    "trade", "net_pnl", "breakeven_slippage", "otm_range", "initial_capital",
    "bucket_stats",
    "SynthConfig", "OptionChainSpec", "GridPlants", "gen_flows_and_prices",
    "gen_option_chain", "gen_market",
    "FlowcastError", "ValidationError", "EstimationError",
]
