"""Delta-hedged call trade accounting, cost model, and percentile backtests.

A trade pairs two quotes of the same instrument (strike, expiry). With
``P_call = option_price * index_price``:

    pnl_option     = P_call(entry) - P_call(exit)      (sell side; negated for buy)
    r_option       = pnl_option / P_call(entry)        (sell; buy = -sell)
    pnl_underlying = (index_exit - index_entry) * delta_hedge
    r_underlying   = (index_exit/index_entry - 1) * delta_hedge
    pnl_portfolio  = pnl_option + pnl_underlying
    r_portfolio    = r_option + r_underlying

Costs are charged against the entry index price at a fixed rate
premium + hedge*delta + half_spread + slippage; the net portfolio return
divides net PnL by the initial capital (0.3 + delta) * index, and a trade
wins when that return is positive.

``trade_fields`` is the one copy of this arithmetic. ``trade`` applies it
to two ``OptionQuote``s; the backtest applies it to the columns of every
matched (entry, exit) pair at once, so a trade there is an array element,
not an object. It uses only IEEE + - * /, so each element holds the same
bits as the scalar trade. Report buckets are masks over the entry implied
vol and moneyness columns.
"""

from __future__ import annotations

import io
import math
import logging
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .errors import InstrumentMismatch, InvalidConfig, NoMatchingQuotes, ZeroEntryPrice
from .ingest import OptionQuote, QuoteSeries, format_number
from .series import NetInflowSeries

logger = logging.getLogger(__name__)

SIDE_SELL = "sell_call"
SIDE_BUY = "buy_call"
LEG_TOP = "top"
LEG_BOTTOM = "bottom"

MARGIN_FACTOR = 0.3  # initial capital per trade is (0.3 + delta) * index

DEFAULT_ENTRY_TOLERANCE = timedelta(minutes=30)
REPORT_HEADER = ["bucket", "win_rate", "total_trades", "wtl", "r_avg_net", "r_total_net"]

WTL_COUNTS = "counts"
WTL_PNL = "pnl"


@dataclass(frozen=True)
class CostParams:
    premium_rate: float = 0.0003
    hedge_rate: float = 0.0005    # applied per unit of hedge delta
    half_spread: float = 0.0005   # half of a 0.1% bid-ask spread
    slippage: float = 0.0

    def rate(self, delta: float) -> float:
        return (self.premium_rate + self.hedge_rate * delta
                + self.half_spread + self.slippage)


ZERO_COSTS = CostParams(premium_rate=0.0, hedge_rate=0.0, half_spread=0.0, slippage=0.0)


@dataclass(frozen=True)
class TradeOutcome:
    entry: OptionQuote
    exit: OptionQuote
    side: str
    delta_hedge: float
    pnl_option: float
    pnl_underlying: float
    pnl_portfolio: float
    pnl_net: float
    r_option: float
    r_underlying: float
    r_portfolio: float
    r_portfolio_net: float
    win: bool


def call_price(q: OptionQuote) -> float:
    """Premium in USD: option price (in underlying units) times index price."""
    return q.option_price * q.index_price


def otm_range(strike: float | np.ndarray, index: float | np.ndarray) -> float | np.ndarray:
    """Signed fractional moneyness (strike - index) / index, of floats or arrays."""
    if np.any(index <= 0):
        raise InvalidConfig(f"index price must be positive, got {np.min(index)}")
    return (strike - index) / index


def initial_capital(delta: float | np.ndarray,
                    index: float | np.ndarray) -> float | np.ndarray:
    """Capital posted per trade: (0.3 + delta) * index, of floats or arrays."""
    if np.any(index <= 0):
        raise InvalidConfig(f"index price must be positive, got {np.min(index)}")
    return (MARGIN_FACTOR + delta) * index


def trade_fields(p_entry, p_exit, index_entry, index_exit, delta, side: str,
                 costs: CostParams) -> dict:
    """``TradeOutcome``'s PnL and return fields from the entry and exit call
    prices and index prices and the hedge delta, as floats or as arrays."""
    if side not in (SIDE_SELL, SIDE_BUY):
        raise InvalidConfig(f"side must be {SIDE_SELL} or {SIDE_BUY}, got {side!r}")
    capital = initial_capital(delta, index_entry)
    pnl_option = p_entry - p_exit
    r_option = pnl_option / p_entry
    if side == SIDE_BUY:
        pnl_option, r_option = -pnl_option, -r_option
    index_move = index_exit - index_entry
    pnl_underlying = index_move * delta
    r_underlying = (index_move / index_entry) * delta
    pnl_portfolio = pnl_option + pnl_underlying
    pnl_net = pnl_portfolio - costs.rate(delta) * index_entry
    return dict(pnl_option=pnl_option, pnl_underlying=pnl_underlying,
                pnl_portfolio=pnl_portfolio, pnl_net=pnl_net, r_option=r_option,
                r_underlying=r_underlying, r_portfolio=r_option + r_underlying,
                r_portfolio_net=pnl_net / capital)


def trade(entry: OptionQuote, exit: OptionQuote, side: str,
          delta_hedge: float | None = None,
          costs: CostParams | None = None) -> TradeOutcome:
    """Account one round trip between two quotes of the same instrument.

    ``delta_hedge`` defaults to the entry quote's delta. ``costs`` default
    to zero, in which case the net fields equal the gross ones.
    """
    if entry.instrument != exit.instrument:
        raise InstrumentMismatch(
            f"entry {entry.instrument} vs exit {exit.instrument}")
    if exit.quote_time <= entry.quote_time:
        raise InstrumentMismatch("exit quote must be strictly after entry quote")
    p_entry = call_price(entry)
    if p_entry <= 0:
        raise ZeroEntryPrice("entry call price must be positive")
    delta = entry.delta if delta_hedge is None else delta_hedge
    fields = trade_fields(p_entry, call_price(exit), entry.index_price, exit.index_price,
                          delta, side, ZERO_COSTS if costs is None else costs)
    return TradeOutcome(entry=entry, exit=exit, side=side, delta_hedge=delta,
                        win=fields["r_portfolio_net"] > 0, **fields)


def net_pnl(t: TradeOutcome, c: CostParams) -> float:
    """Net PnL under cost parameters c, from the trade's gross PnL."""
    return t.pnl_portfolio - c.rate(t.delta_hedge) * t.entry.index_price


def breakeven_slippage(t: TradeOutcome, c: CostParams) -> float:
    """Slippage that drives the trade's net PnL to exactly zero."""
    index = t.entry.index_price
    if index <= 0:
        raise InvalidConfig("entry index price must be positive")
    base = c.premium_rate + c.hedge_rate * t.delta_hedge + c.half_spread
    return t.pnl_portfolio / index - base


# ---------------------------------------------------------------------------
# Buckets and aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketKey:
    """Conjunctive trade filters for one report row.

    ``leg``/``pct`` label which percentile selection the trades came from;
    IV bounds are closed below and open above; the OTM interval is
    half-open [otm_lo, otm_hi).
    """

    leg: str
    pct: float
    iv_min: float | None = None
    iv_max: float | None = None
    otm_lo: float | None = None
    otm_hi: float | None = None

    def mask(self, implied_vol: np.ndarray, moneyness: np.ndarray) -> np.ndarray:
        """Which trades, given by their entry implied vol and moneyness, fall in
        the bucket; a NaN falls in no bounded interval."""
        mask = np.ones(len(implied_vol), dtype=bool)
        for values, bound, inside in ((implied_vol, self.iv_min, np.greater_equal),
                                      (implied_vol, self.iv_max, np.less),
                                      (moneyness, self.otm_lo, np.greater_equal),
                                      (moneyness, self.otm_hi, np.less)):
            if bound is not None:
                mask &= inside(values, bound)
        return mask

    def label(self) -> str:
        parts = [f"{self.leg}{format_number(self.pct * 100).rstrip('0').rstrip('.')}%"]
        if self.iv_min is not None:
            parts.append(f"iv>={format_number(self.iv_min)}")
        if self.iv_max is not None:
            parts.append(f"iv<{format_number(self.iv_max)}")
        if self.otm_lo is not None or self.otm_hi is not None:
            lo = "" if self.otm_lo is None else f"{self.otm_lo * 100:g}%<="
            hi = "" if self.otm_hi is None else f"<{self.otm_hi * 100:g}%"
            parts.append(f"{lo}otm{hi}")
        if len(parts) == 1:
            parts.append("original")
        return ",".join(parts)


@dataclass(frozen=True)
class BucketStats:
    win_rate: float | None
    total_trades: int
    wtl: float | None
    r_avg_net: float | None
    r_total_net: float


IV_THRESHOLDS = (1.0, 2.0)
OTM_EDGES = ((None, 0.01), (0.01, 0.03), (0.03, 0.05), (0.05, 0.10))


def table_buckets(leg: str, pct: float) -> list[BucketKey]:
    """The report rows of one leg: the original selection, each IV floor of
    ``IV_THRESHOLDS``, each OTM band of ``OTM_EDGES``, then every IV floor
    with every OTM band."""
    buckets = [BucketKey(leg, pct)]
    for iv in IV_THRESHOLDS:
        buckets.append(BucketKey(leg, pct, iv_min=iv))
    for lo, hi in OTM_EDGES:
        buckets.append(BucketKey(leg, pct, otm_lo=lo, otm_hi=hi))
    for iv in IV_THRESHOLDS:
        for lo, hi in OTM_EDGES:
            buckets.append(BucketKey(leg, pct, iv_min=iv, otm_lo=lo, otm_hi=hi))
    return buckets


def bucket_stats(implied_vol: np.ndarray, moneyness: np.ndarray, r_net: np.ndarray,
                 key: BucketKey, wtl_mode: str = WTL_COUNTS) -> BucketStats:
    """Win rate, win-to-loss ratio, and net-return aggregates for one bucket.

    The trades are columns: entry implied vol, entry moneyness and net
    portfolio return. A trade wins when its net return is positive. WtL is
    the win/loss *count* ratio by default; ``wtl_mode="pnl"`` uses the ratio
    of summed winning to summed losing net returns instead. Undefined ratios
    (no trades, or no losses) are reported as None.
    """
    selected = r_net[key.mask(implied_vol, moneyness)]
    total = len(selected)
    if total == 0:
        return BucketStats(win_rate=None, total_trades=0, wtl=None,
                           r_avg_net=None, r_total_net=0.0)
    win = selected > 0
    wins = int(np.count_nonzero(win))
    if wtl_mode == WTL_COUNTS:
        wtl = wins / (total - wins) if wins < total else None
    elif wtl_mode == WTL_PNL:
        loss_sum = abs(math.fsum(selected[~win].tolist()))
        wtl = math.fsum(selected[win].tolist()) / loss_sum if loss_sum > 0 else None
    else:
        raise InvalidConfig(f"wtl_mode must be '{WTL_COUNTS}' or '{WTL_PNL}'")
    # fsum is exactly rounded, so the stats cannot depend on trade order
    total_net = math.fsum(selected.tolist())
    return BucketStats(win_rate=wins / total, total_trades=total, wtl=wtl,
                       r_avg_net=total_net / total, r_total_net=total_net)


# ---------------------------------------------------------------------------
# Percentile backtest
# ---------------------------------------------------------------------------

@dataclass
class BacktestDiagnostics:
    events: int = 0
    trades: int = 0
    unmatched_entries: int = 0
    unmatched_exits: int = 0
    zero_price_skips: int = 0


def select_percentile_hours(net_series: NetInflowSeries, pct: float,
                            leg: str) -> np.ndarray:
    """Timestamps whose net inflow lies in the requested percentile leg."""
    if not 0.0 < pct <= 1.0:
        raise InvalidConfig(f"pct must be in (0, 1], got {pct}")
    if leg not in (LEG_TOP, LEG_BOTTOM):
        raise InvalidConfig(f"leg must be '{LEG_TOP}' or '{LEG_BOTTOM}', got {leg!r}")
    vals = net_series.values
    if len(vals) == 0:
        raise InvalidConfig("empty net inflow series")
    if leg == LEG_TOP:
        cutoff = np.quantile(vals, 1.0 - pct)
        mask = vals >= cutoff
    else:
        cutoff = np.quantile(vals, pct)
        mask = vals <= cutoff
    return net_series.timestamps[mask]


def run_percentile_backtest(net_series: NetInflowSeries, quotes: QuoteSeries,
                            pct: float, leg: str, side: str, costs: CostParams,
                            buckets: list[BucketKey],
                            holding: timedelta = timedelta(hours=1),
                            entry_tolerance: timedelta = DEFAULT_ENTRY_TOLERANCE,
                            wtl_mode: str = WTL_COUNTS,
                            ) -> tuple[dict[BucketKey, BucketStats], BacktestDiagnostics]:
    """Open one trade per instrument on each selected hour; aggregate by bucket.

    Instruments are (strike, expiry) pairs, compared exactly. An entry is the
    first quote of an instrument in [event, event + tolerance], its exit the
    first of the same instrument in [entry + holding, entry + holding +
    tolerance]. Diagnostics count, in this order, (event, instrument) pairs
    without an entry, entries without an exit and entries priced at or below 0.
    Cost: sorts of the time-sorted ``quotes`` by instrument plus searches,
    linear in the quotes inside the entry windows, not events x instruments.
    """
    if len(quotes) == 0:
        raise NoMatchingQuotes("no option quotes supplied")
    tol_s = int(entry_tolerance.total_seconds())
    hold_s = int(holding.total_seconds())
    if hold_s <= 0:
        raise InvalidConfig("holding horizon must be positive")
    qt = quotes.quote_times
    if (np.diff(qt) < 0).any():
        raise InvalidConfig("option quotes must be sorted by quote_time")

    # Instrument id of every quote (inst) and of the quotes in by_inst order.
    by_inst, inst_by = quotes.instruments()
    inst = np.empty_like(inst_by)
    inst[by_inst] = inst_by
    n_inst = int(inst_by[-1]) + 1

    # Entries: the first quote per (event, instrument) in [event, event + tol].
    events = select_percentile_hours(net_series, pct, leg)
    lo = np.searchsorted(qt, events, side="left")
    width = np.maximum(np.searchsorted(qt, events + tol_s, side="right") - lo, 0)
    ev = np.repeat(np.arange(len(events)), width)
    in_window = np.arange(len(ev)) - np.repeat(np.cumsum(width) - width - lo, width)
    _, first = np.unique(ev * n_inst + inst[in_window], return_index=True)
    entry = in_window[first]

    # Exits: one search over (instrument, time rank) keys, which ascend in
    # by_inst order; a time rank, unlike a packed epoch, cannot overflow.
    times, rank = np.unique(qt, return_inverse=True)
    stride = len(times) + 1
    keys = inst_by * stride + rank[by_inst]
    target = qt[entry] + hold_s
    pos = np.searchsorted(keys, inst[entry] * stride + np.searchsorted(times, target))
    exit_ = by_inst[np.minimum(pos, len(qt) - 1)]
    has_exit = ((pos < len(qt)) & (inst[exit_] == inst[entry])
                & (qt[exit_] <= target + tol_s))
    premium = quotes.option_prices[entry] * quotes.index_prices[entry]
    zero_price = has_exit & (premium <= 0)
    keep = has_exit & ~zero_price

    diag = BacktestDiagnostics(
        events=len(events), unmatched_entries=len(events) * n_inst - len(entry),
        unmatched_exits=int((~has_exit).sum()), zero_price_skips=int(zero_price.sum()))
    entry, exit_ = entry[keep], exit_[keep]
    index = quotes.index_prices[entry]
    r_net = trade_fields(premium[keep], quotes.option_prices[exit_] * quotes.index_prices[exit_],
                         index, quotes.index_prices[exit_], quotes.deltas[entry], side,
                         costs)["r_portfolio_net"]
    iv, moneyness = quotes.implied_vols[entry], otm_range(quotes.strikes[entry], index)
    diag.trades = len(r_net)
    if diag.events and not diag.trades:
        logger.warning("percentile backtest produced no trades "
                       "(%d events, %d entry misses)", diag.events,
                       diag.unmatched_entries)
    stats = {key: bucket_stats(iv, moneyness, r_net, key, wtl_mode=wtl_mode)
             for key in buckets}
    return stats, diag


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "N/A" if value is None else format_number(value)


def report_to_tsv(stats: dict[BucketKey, BucketStats]) -> str:
    buf = io.StringIO()
    buf.write("\t".join(REPORT_HEADER) + "\n")
    for key, s in stats.items():
        buf.write("\t".join([key.label(), _fmt(s.win_rate), str(s.total_trades),
                             _fmt(s.wtl), _fmt(s.r_avg_net),
                             format_number(s.r_total_net)]) + "\n")
    return buf.getvalue()
