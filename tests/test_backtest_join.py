"""The backtest's sorted quote join against the loop-style reference in
oracles.py: identical bucket stats and diagnostics on random quote books.
"""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import T0
from flowcast import errors
from flowcast.ingest import Asset, QuoteSeries
from flowcast.options import (
    LEG_BOTTOM,
    LEG_TOP,
    SIDE_BUY,
    SIDE_SELL,
    WTL_COUNTS,
    WTL_PNL,
    BacktestDiagnostics,
    BucketKey,
    CostParams,
    run_percentile_backtest,
    table_buckets,
)
from flowcast.series import HOUR, NetInflowSeries

# Quote times sit on a 15-minute grid, nudged by at most a second, and every
# tolerance and holding period below is a multiple of it, so quotes often
# fall exactly on a window's closing edge or just past it.
STEP_S = 900
TOLERANCES_S = (0, 900, 1800, 3600, 5400)  # 3600 and up: entry windows overlap
HOLDINGS_S = (1, 900, 3600, 7200)
JITTER_S = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1))


def net_series(values):
    ts = T0 + 3600 * np.arange(len(values), dtype=np.int64)
    return NetInflowSeries(Asset.ETH, HOUR, ts, np.asarray(values, dtype=np.float64))


def quote_series(rows):
    """QuoteSeries from (time, strike, expiry, price, index, iv, delta) rows,
    sorted by time, then strike, then expiry, as the parser sorts them."""
    cols = [np.array(c) for c in zip(*rows)]
    order = np.lexsort((cols[2], cols[1], cols[0]))
    return QuoteSeries(*(c[order] for c in cols))


@st.composite
def quote_books(draw):
    hours = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(-5, 5), min_size=hours, max_size=hours))
    last_slot = (hours + 3) * 3600 // STEP_S
    rows = []
    # An instrument can appear twice, with two listing spans.
    for _ in range(draw(st.integers(1, 6))):
        strike = draw(st.sampled_from((1000.0, 1010.0, 1050.0, 1100.0)))
        expiry = T0 + 3600 * draw(st.sampled_from((24, 48)))
        # Listed and delisted anywhere in the history; a span of one slot
        # makes a single-quote instrument.
        listed = draw(st.integers(0, last_slot))
        delisted = draw(st.integers(listed, last_slot))
        every = draw(st.sampled_from((1, 2, 4)))
        for slot in range(listed, delisted + 1, every):
            # Dropped quotes leave holes; repeated ones make ties.
            for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):
                rows.append((T0 + slot * STEP_S + draw(JITTER_S),
                             strike, expiry,
                             draw(st.sampled_from((0.01, 0.02, 0.05, 0.0))),
                             draw(st.sampled_from((950.0, 1000.0, 1040.0))),
                             draw(st.sampled_from((0.5, 1.0, 1.5, 2.5))),
                             draw(st.sampled_from((0.0, 0.2, 0.55)))))
    if not rows:  # every quote dropped; the backtest needs at least one
        rows.append((T0, 1000.0, T0 + 24 * 3600, 0.02, 1000.0, 1.0, 0.2))
    return net_series(values), quote_series(rows)


@settings(max_examples=300)
@given(book=quote_books(),
       pct=st.sampled_from((0.1, 0.5, 1.0)),
       leg=st.sampled_from((LEG_TOP, LEG_BOTTOM)),
       side=st.sampled_from((SIDE_SELL, SIDE_BUY)),
       tolerance_s=st.sampled_from(TOLERANCES_S),
       holding_s=st.sampled_from(HOLDINGS_S),
       wtl_mode=st.sampled_from((WTL_COUNTS, WTL_PNL)))
def test_join_matches_reference(book, pct, leg, side, tolerance_s, holding_s, wtl_mode):
    series, quotes = book
    buckets = table_buckets(leg, pct)
    costs = CostParams(slippage=0.001)
    got = run_percentile_backtest(series, quotes, pct, leg, side, costs, buckets,
                                  holding=timedelta(seconds=holding_s),
                                  entry_tolerance=timedelta(seconds=tolerance_s),
                                  wtl_mode=wtl_mode)
    want = oracles.reference_backtest(series, quotes, pct, leg, side, costs, buckets,
                                      holding_s=holding_s, tolerance_s=tolerance_s,
                                      wtl_mode=wtl_mode)
    assert got == want


@pytest.mark.parametrize("tolerance_s,diag", [
    (1800, BacktestDiagnostics(events=1, trades=2, unmatched_entries=2,
                               unmatched_exits=2, zero_price_skips=1)),
    (0, BacktestDiagnostics(events=1, trades=1, unmatched_entries=4,
                            unmatched_exits=2, zero_price_skips=0)),
])
def test_join_window_edges(tolerance_s, diag):
    """One event at T0 and a one-hour holding; offsets are from T0."""
    expiry = T0 + 48 * 3600

    def q(offset_s, strike, price=0.02):
        return (T0 + offset_s, strike, expiry, price, 1000.0, 1.0, 0.2)

    quotes = quote_series([
        q(1800, 1000.0), q(7200, 1000.0),           # entry and exit on the closing edges
        q(1801, 1010.0),                            # a second past the entry window
        q(-900, 1020.0),                            # delisted before the event
        q(900, 1030.0, price=0.0), q(4500, 1030.0),  # zero-price entry
        q(0, 1040.0), q(3600, 1040.0),              # entry and exit on the opening edges
        q(0, 1050.0), q(7201, 1050.0),              # exit a second too late
        q(0, 1100.0),                               # a single quote: no exit
    ])
    key = BucketKey(LEG_TOP, 1.0)
    args = (net_series([1.0]), quotes, 1.0, LEG_TOP, SIDE_SELL, CostParams(), [key])
    got = run_percentile_backtest(*args, entry_tolerance=timedelta(seconds=tolerance_s))
    assert got[1] == diag
    assert got == oracles.reference_backtest(*args, tolerance_s=tolerance_s)


def test_join_rejects_unsorted_quotes():
    expiry = T0 + 48 * 3600
    quotes = QuoteSeries(np.array([T0 + 3600, T0]), np.array([1000.0, 1000.0]),
                         np.array([expiry, expiry]), np.array([0.02, 0.02]),
                         np.array([1000.0, 1000.0]), np.array([1.0, 1.0]),
                         np.array([0.2, 0.2]))
    with pytest.raises(errors.InvalidConfig):
        run_percentile_backtest(net_series([1.0]), quotes, 1.0, LEG_TOP, SIDE_SELL,
                                CostParams(), [BucketKey(LEG_TOP, 1.0)])
