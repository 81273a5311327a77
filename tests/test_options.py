import dataclasses
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_trade_quotes, utc
from flowcast import errors
from flowcast.ingest import OptionQuote, QuoteSeries
from flowcast.options import (
    LEG_BOTTOM,
    LEG_TOP,
    SIDE_BUY,
    SIDE_SELL,
    BucketKey,
    CostParams,
    breakeven_slippage,
    bucket_stats,
    call_price,
    initial_capital,
    net_pnl,
    otm_range,
    report_to_tsv,
    run_percentile_backtest,
    _quantile,
    select_percentile_hours,
    table_buckets,
    trade,
    trade_fields,
)
from flowcast.series import HOUR, NetInflowSeries, net_inflows
from flowcast.synth import OptionChainSpec, SynthConfig, gen_flows_and_prices, gen_option_chain


def make_quote(when, strike=2000.0, expiry=None, option_price=0.02,
               index_price=2000.0, iv=1.0, delta=0.2):
    return OptionQuote(quote_time=when, strike=strike,
                       expiry=expiry or utc(2022, 5, 13, 8),
                       option_price=option_price, index_price=index_price,
                       implied_vol=iv, delta=delta)


# ---------------------------------------------------------------------------
# call_price / otm_range / initial_capital
# ---------------------------------------------------------------------------

def test_call_price_zero_option():
    assert call_price(make_quote(utc(2022, 5, 12, 12), option_price=0.0)) == 0.0


def test_call_price_product():
    assert call_price(make_quote(utc(2022, 5, 12, 12), option_price=0.02,
                                 index_price=2000.0)) == pytest.approx(40.0)


def test_call_price_reference_entry():
    entry, _ = reference_trade_quotes()
    assert call_price(entry) == pytest.approx(42.58, abs=1e-9)


def test_otm_range_at_the_money():
    assert otm_range(2000.0, 2000.0) == 0.0


def test_otm_range_five_percent():
    assert otm_range(2100.0, 2000.0) == pytest.approx(0.05)


def test_otm_bucket_edges_half_open():
    below = BucketKey(LEG_TOP, 0.10, otm_hi=0.01)
    mid = BucketKey(LEG_TOP, 0.10, otm_lo=0.01, otm_hi=0.03)
    moneyness = otm_range(np.array([2020.0]), np.array([2000.0]))
    assert moneyness[0] == pytest.approx(0.01)
    assert not below.mask(np.ones(1), moneyness)[0]  # 1% is not "< 1%"
    assert mid.mask(np.ones(1), moneyness)[0]        # it belongs to [1%, 3%)


def test_moneyness_and_capital_reject_non_positive_index():
    for index in (0.0, np.array([2000.0, -1.0])):
        with pytest.raises(errors.InvalidConfig):
            otm_range(2000.0, index)
        with pytest.raises(errors.InvalidConfig):
            initial_capital(0.5, index)


def test_initial_capital_values():
    assert initial_capital(0.0, 1000.0) == pytest.approx(300.0)
    assert initial_capital(0.17, 2000.0) == pytest.approx(940.0)
    assert initial_capital(0.7, 10000.0) == pytest.approx(10000.0)


# ---------------------------------------------------------------------------
# trade accounting
# ---------------------------------------------------------------------------

def test_reference_trade_triples():
    entry, exits = reference_trade_quotes()
    for exit_q, (r_sell, r_ul, r_port) in exits:
        out = trade(entry, exit_q, SIDE_SELL)
        assert out.r_option == pytest.approx(r_sell, abs=1e-4)
        assert out.r_underlying == pytest.approx(r_ul, abs=1e-4)
        assert out.r_portfolio == pytest.approx(r_port, abs=1e-4)
        buy = trade(entry, exit_q, SIDE_BUY)
        assert buy.r_option == pytest.approx(-r_sell, abs=1e-4)


def test_identical_quotes_zero_pnl():
    entry, _ = reference_trade_quotes()
    exit_q = make_quote(entry.quote_time + timedelta(hours=1),
                        option_price=entry.option_price,
                        index_price=entry.index_price, delta=entry.delta)
    out = trade(entry, exit_q, SIDE_SELL)
    assert out.pnl_option == 0.0
    assert out.pnl_underlying == 0.0
    assert out.r_portfolio == 0.0
    assert not out.win


def test_buy_sell_antisymmetry(rng):
    for _ in range(50):
        entry = make_quote(utc(2022, 5, 12, 12),
                           option_price=float(rng.uniform(0.001, 0.1)),
                           index_price=float(rng.uniform(1000, 4000)),
                           delta=float(rng.uniform(0, 1)))
        exit_q = make_quote(utc(2022, 5, 12, 14),
                            option_price=float(rng.uniform(0.001, 0.1)),
                            index_price=float(rng.uniform(1000, 4000)))
        sell = trade(entry, exit_q, SIDE_SELL)
        buy = trade(entry, exit_q, SIDE_BUY)
        assert buy.r_option == -sell.r_option  # exact
        assert buy.pnl_option == -sell.pnl_option
        for out in (sell, buy):
            assert out.r_portfolio == pytest.approx(
                out.r_option + out.r_underlying, abs=1e-12)


def test_instrument_mismatch():
    entry = make_quote(utc(2022, 5, 12, 12), strike=2000.0)
    exit_q = make_quote(utc(2022, 5, 12, 13), strike=2100.0)
    with pytest.raises(errors.InstrumentMismatch):
        trade(entry, exit_q, SIDE_SELL)


def test_exit_must_follow_entry():
    entry = make_quote(utc(2022, 5, 12, 12))
    with pytest.raises(errors.InstrumentMismatch):
        trade(entry, make_quote(utc(2022, 5, 12, 12)), SIDE_SELL)


def test_zero_entry_price():
    entry = make_quote(utc(2022, 5, 12, 12), option_price=0.0)
    with pytest.raises(errors.ZeroEntryPrice):
        trade(entry, make_quote(utc(2022, 5, 12, 13)), SIDE_SELL)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def _round_trip(delta=0.17, index=2000.0):
    entry = make_quote(utc(2022, 5, 12, 12), index_price=index, delta=delta)
    exit_q = make_quote(utc(2022, 5, 12, 13), option_price=0.018,
                        index_price=index * 1.01)
    return trade(entry, exit_q, SIDE_SELL)


def test_cost_deduction_delta_zero():
    t = _round_trip(delta=0.0, index=10000.0)
    c = CostParams()
    # (0.0003 + 0.0005) * 10,000 = 8 USD of costs
    assert t.pnl_portfolio - net_pnl(t, c) == pytest.approx(8.0, abs=1e-9)


def test_cost_deduction_delta_017():
    t = _round_trip(delta=0.17, index=2000.0)
    c = CostParams()
    assert t.pnl_portfolio - net_pnl(t, c) == pytest.approx(1.77, abs=1e-9)


def test_zero_costs_leave_pnl_untouched():
    t = _round_trip()
    zero = CostParams(premium_rate=0.0, hedge_rate=0.0, half_spread=0.0)
    assert net_pnl(t, zero) == t.pnl_portfolio


def test_costs_never_increase_pnl(rng):
    for _ in range(100):
        t = _round_trip(delta=float(rng.uniform(0, 1)),
                        index=float(rng.uniform(500, 5000)))
        c = CostParams(slippage=float(rng.uniform(0, 0.002)))
        assert net_pnl(t, c) <= t.pnl_portfolio


def test_breakeven_zero_cases():
    entry = make_quote(utc(2022, 5, 12, 12), option_price=0.02, delta=0.0)
    exit_q = make_quote(utc(2022, 5, 12, 13), option_price=0.02,
                        index_price=2000.0)
    t = trade(entry, exit_q, SIDE_SELL)
    zero = CostParams(premium_rate=0.0, hedge_rate=0.0, half_spread=0.0)
    assert breakeven_slippage(t, zero) == pytest.approx(0.0, abs=1e-15)


def test_breakeven_absorbs_pnl_exactly():
    # a trade whose gross PnL is exactly the 8 USD base cost at delta=0
    entry = make_quote(utc(2022, 5, 12, 12), option_price=0.02,
                       index_price=10000.0, delta=0.0)
    exit_q = make_quote(utc(2022, 5, 12, 13), option_price=0.02 - 8.0 / 10000.0 * 0.02 / 0.02,
                        index_price=10000.0)
    t = trade(entry, exit_q, SIDE_SELL)
    assert t.pnl_portfolio == pytest.approx(8.0, abs=1e-9)
    assert breakeven_slippage(t, CostParams()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("field", ["premium_rate", "hedge_rate", "half_spread", "slippage"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_cost_params_refuse_non_finite_or_negative_rates(field, value):
    if field == "slippage" and value == -1e-9:
        # breakeven_slippage's root is negative for a trade that loses before
        # slippage, and net_pnl is evaluated there.
        assert CostParams(slippage=value).slippage == value
        return
    with pytest.raises(errors.InvalidConfig, match=field):
        CostParams(**{field: value})


def test_breakeven_is_exact_root(rng):
    for _ in range(200):
        t = _round_trip(delta=float(rng.uniform(0, 1)),
                        index=float(rng.uniform(500, 20000)))
        c = CostParams(slippage=float(rng.uniform(0, 0.01)))
        s = breakeven_slippage(t, c)
        solved = net_pnl(t, CostParams(c.premium_rate, c.hedge_rate,
                                       c.half_spread, s))
        assert abs(solved) <= 1e-10 * t.entry.index_price


# ---------------------------------------------------------------------------
# trade_fields: the backtest's array path against trade()
# ---------------------------------------------------------------------------

PRICES = st.floats(0.001, 0.2)
INDEXES = st.floats(100.0, 10000.0)
RATES = st.floats(0.0, 0.01)


@settings(max_examples=200)
@given(legs=st.lists(st.tuples(PRICES, INDEXES, PRICES, INDEXES,
                               st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))),
                     min_size=1, max_size=20),
       side=st.sampled_from((SIDE_SELL, SIDE_BUY)),
       rates=st.tuples(RATES, RATES, RATES, RATES))
def test_trade_fields_on_arrays_match_trade_bit_for_bit(legs, side, rates):
    costs = CostParams(*rates)
    trades = [trade(make_quote(utc(2022, 5, 12, 12), option_price=p0, index_price=i0,
                               delta=delta),
                    make_quote(utc(2022, 5, 12, 13), option_price=p1, index_price=i1),
                    side, costs=costs)
              for p0, i0, p1, i1, delta in legs]
    p0, i0, p1, i1, delta = map(np.array, zip(*legs))
    fields = trade_fields(p0 * i0, p1 * i1, i0, i1, delta, side, costs)
    for name, column in fields.items():
        scalar = np.array([getattr(t, name) for t in trades])
        assert column.view(np.int64).tolist() == scalar.view(np.int64).tolist(), name
    assert [t.win for t in trades] == (fields["r_portfolio_net"] > 0).tolist()


def test_trade_fields_rejects_unknown_side():
    with pytest.raises(errors.InvalidConfig):
        trade_fields(40.0, 38.0, 2000.0, 2010.0, 0.2, "sell_put", CostParams())


# ---------------------------------------------------------------------------
# bucket stats
# ---------------------------------------------------------------------------

def _columns(r_nets, iv=1.5, moneyness=0.0):
    """(entry implied vol, entry moneyness, net return) columns of trades."""
    r = np.asarray(r_nets, dtype=float)
    return np.broadcast_to(iv, r.shape), np.broadcast_to(moneyness, r.shape), r


def test_bucket_all_wins():
    s = bucket_stats(*_columns([0.01, 0.02, 0.005]), BucketKey(LEG_TOP, 0.10))
    assert s.win_rate == pytest.approx(1.0)
    assert s.total_trades == 3
    assert s.wtl is None


def test_bucket_empty():
    s = bucket_stats(*_columns([]), BucketKey(LEG_TOP, 0.10))
    assert s.total_trades == 0
    assert s.win_rate is None and s.wtl is None and s.r_avg_net is None
    assert s.r_total_net == 0.0


def test_bucket_seven_three():
    s = bucket_stats(*_columns([0.01] * 7 + [-0.01] * 3), BucketKey(LEG_TOP, 0.10))
    assert s.win_rate == pytest.approx(0.7)
    assert s.wtl == pytest.approx(7 / 3)
    assert s.total_trades == 10


def test_bucket_counts_partition_and_reorder_invariance(rng):
    r = rng.normal(0, 0.01, size=60)
    key = BucketKey(LEG_TOP, 0.10)
    s = bucket_stats(*_columns(r), key)
    assert s.win_rate == pytest.approx((r > 0).sum() / 60)
    assert bucket_stats(*_columns(rng.permutation(r)), key) == s


def test_bucket_iv_filter_closed_on_threshold():
    s = bucket_stats(*_columns([0.01, 0.01], iv=np.array([1.0, 0.99])),
                     BucketKey(LEG_TOP, 0.10, iv_min=1.0))
    assert s.total_trades == 1  # iv >= 1 includes exactly 1.0


def test_bucket_wtl_pnl_mode():
    s = bucket_stats(*_columns([0.03, 0.01, -0.02]), BucketKey(LEG_TOP, 0.10),
                     wtl_mode="pnl")
    assert s.wtl == pytest.approx(0.04 / 0.02)


def test_bucket_mask_excludes_nan_from_bounded_intervals():
    iv, moneyness = np.array([np.nan, 1.5]), np.array([0.02, np.nan])
    assert BucketKey(LEG_TOP, 0.10).mask(iv, moneyness).tolist() == [True, True]
    assert BucketKey(LEG_TOP, 0.10, iv_min=1.0).mask(iv, moneyness).tolist() == [False, True]
    assert BucketKey(LEG_TOP, 0.10, otm_hi=0.05).mask(iv, moneyness).tolist() == [True, False]


def test_otm_buckets_partition(rng):
    edges = ((None, 0.01), (0.01, 0.03), (0.03, 0.05), (0.05, 0.10))
    keys = [BucketKey(LEG_TOP, 0.10, otm_lo=lo, otm_hi=hi) for lo, hi in edges]
    moneyness = otm_range(rng.uniform(1800, 2300, size=100), np.full(100, 2000.0))
    iv = np.full(100, 1.5)
    assert (sum(k.mask(iv, moneyness).astype(int) for k in keys) <= 1).all()


def test_report_tsv_renders_na():
    stats = {BucketKey(LEG_TOP, 0.10): bucket_stats(*_columns([]), BucketKey(LEG_TOP, 0.10))}
    text = report_to_tsv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == "bucket\twin_rate\ttotal_trades\twtl\tr_avg_net\tr_total_net"
    assert lines[1].split("\t") == ["top10%,original", "N/A", "0", "N/A", "N/A", "0.0"]


@pytest.mark.parametrize("pct, label", [(0.10, "top10%"), (0.07, "top7%"), (0.29, "top29%"),
                                        (0.035, "top3.5%")])
def test_bucket_label_prints_the_percent_without_float_noise(pct, label):
    # 0.07 * 100 is 7.000000000000001 in floats.
    assert BucketKey(LEG_TOP, pct).label() == f"{label},original"


# ---------------------------------------------------------------------------
# percentile backtest
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _np_quantile(values, q):
    with np.errstate(all="ignore"):  # numpy's lerp warns on inf - inf
        return np.quantile(np.array(values), q)


@settings(max_examples=500)
@given(values=st.lists(st.one_of(st.floats(allow_nan=False),
                                 st.sampled_from((0.0, -0.0, 1.0, -1.0, -2.5))),
                       min_size=1, max_size=40),
       q=st.one_of(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0 - 0.1, 1.0)), st.floats(0.0, 1.0)))
def test_quantile_is_np_quantile_bit_for_bit(values, q):
    assert _bits(_quantile(np.array(values), q)) == _bits(_np_quantile(values, q))


@pytest.mark.parametrize("values", [
    [3.5], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [-2.0, -2.0, -1.0, 0.0, 0.0, 5.0],
    [-3.0, -1.0, -2.0], [1.0, 1.0, 1.0, 1.0], [1.0, np.nan, 2.0], [np.inf, -np.inf, 0.0],
], ids=["one", "negative-zero", "signed-zeros", "alternating-zeros", "ties", "negatives",
        "constant", "nan", "infinities"])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_quantile_edge_cases_are_np_quantile_bit_for_bit(values, q):
    assert _bits(_quantile(np.array(values), q)) == _bits(_np_quantile(values, q))


def test_quantile_on_long_samples_with_ties_is_np_quantile(rng):
    for n in (2, 3, 10, 101, 1000, 8760):
        values = np.round(rng.normal(size=n), 1)  # many ties
        for q in (0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0, 1.0 - 0.1, *rng.random(5)):
            assert _bits(_quantile(values, q)) == _bits(_np_quantile(values, q))


def _chain_fixture(seed=101, hours=400, iv_flow_beta=-0.05):
    cfg = SynthConfig(seed=seed, hours=hours, beta1=-0.004, beta2=0.0,
                      noise_sd=0.003, flow_sd_musd=2.0, vol_base=0.004,
                      chain=OptionChainSpec(iv_base=0.8, iv_flow_beta=iv_flow_beta,
                                            moneyness=(1.0, 1.02, 1.05)))
    flows, bars = gen_flows_and_prices(cfg)
    quotes = gen_option_chain(cfg, bars, flows=flows)
    series = net_inflows(flows, HOUR)
    return series, quotes


def test_backtest_top_bottom_separation():
    series, quotes = _chain_fixture()
    costs = CostParams()
    top, _ = run_percentile_backtest(series, quotes, 0.10, LEG_TOP, SIDE_SELL,
                                     costs, [BucketKey(LEG_TOP, 0.10)])
    bottom, _ = run_percentile_backtest(series, quotes, 0.10, LEG_BOTTOM, SIDE_SELL,
                                        costs, [BucketKey(LEG_BOTTOM, 0.10)])
    top_rate = top[BucketKey(LEG_TOP, 0.10)].win_rate
    bottom_rate = bottom[BucketKey(LEG_BOTTOM, 0.10)].win_rate
    assert top_rate > 0.5
    assert bottom_rate < 0.5


def test_backtest_full_percentile_selects_everything():
    series, quotes = _chain_fixture(hours=200)
    costs = CostParams()
    top, _ = run_percentile_backtest(series, quotes, 1.0, LEG_TOP, SIDE_SELL, costs,
                                     [BucketKey(LEG_TOP, 1.0)])
    bottom, _ = run_percentile_backtest(series, quotes, 1.0, LEG_BOTTOM, SIDE_SELL, costs,
                                        [BucketKey(LEG_BOTTOM, 1.0)])
    ts = top[BucketKey(LEG_TOP, 1.0)]
    bs = bottom[BucketKey(LEG_BOTTOM, 1.0)]
    assert ts.total_trades == bs.total_trades > 0
    assert ts.win_rate == bs.win_rate
    assert ts.r_total_net == bs.r_total_net


def test_backtest_empty_quotes():
    series, _ = _chain_fixture(hours=200)
    empty = QuoteSeries(*[np.empty(0)] * 7)
    with pytest.raises(errors.NoMatchingQuotes):
        run_percentile_backtest(series, empty, 0.10, LEG_TOP, SIDE_SELL,
                                CostParams(), [BucketKey(LEG_TOP, 0.10)])


def test_backtest_table_buckets_nest():
    series, quotes = _chain_fixture(hours=300)
    buckets = table_buckets(LEG_TOP, 0.10)
    stats, _ = run_percentile_backtest(series, quotes, 0.10, LEG_TOP, SIDE_SELL,
                                       CostParams(), buckets)
    original = stats[BucketKey(LEG_TOP, 0.10)]
    assert original.total_trades > 0
    # every filtered bucket is a subset of the unfiltered row
    for s in stats.values():
        assert s.total_trades <= original.total_trades


def test_backtest_rejects_non_positive_entry_index():
    # A negative price at a negative index makes a positive premium, so the
    # entry is traded, and its initial capital is undefined.
    series, _ = _chain_fixture(hours=200)
    t = int(series.timestamps[0])
    quotes = QuoteSeries(np.array([t, t + 3600]), np.array([2000.0, 2000.0]),
                         np.array([t + 86400] * 2), np.array([-0.02, -0.02]),
                         np.array([-2000.0, -2000.0]), np.array([1.0, 1.0]),
                         np.array([0.2, 0.2]))
    with pytest.raises(errors.InvalidConfig):
        run_percentile_backtest(series, quotes, 1.0, LEG_TOP, SIDE_SELL,
                                CostParams(), [BucketKey(LEG_TOP, 1.0)])


def _breakeven_at_index(index):
    entry = make_quote(utc(2022, 5, 12, 12))
    t = trade(entry, make_quote(utc(2022, 5, 12, 13)), SIDE_SELL)
    return breakeven_slippage(dataclasses.replace(t, entry=dataclasses.replace(
        entry, index_price=index)), CostParams())


def _backtest(**durations):
    series, quotes = _chain_fixture(hours=200)
    return run_percentile_backtest(series, quotes, 0.10, LEG_TOP, SIDE_SELL, CostParams(),
                                   [BucketKey(LEG_TOP, 0.10)], **durations)


_EMPTY_SERIES = NetInflowSeries(None, HOUR, np.empty(0, np.int64), np.empty(0))
_ONE_HOUR = NetInflowSeries(None, HOUR, np.array([0]), np.array([1.0]))


@pytest.mark.parametrize("call,message", [
    (lambda: select_percentile_hours(_ONE_HOUR, 0.0, LEG_TOP), "pct must be in (0, 1], got 0.0"),
    (lambda: select_percentile_hours(_ONE_HOUR, 1.5, LEG_TOP), "pct must be in (0, 1], got 1.5"),
    (lambda: select_percentile_hours(_ONE_HOUR, 0.5, "middle"),
     "leg must be 'top' or 'bottom', got 'middle'"),
    (lambda: select_percentile_hours(_EMPTY_SERIES, 0.5, LEG_TOP), "empty net inflow series"),
    (lambda: bucket_stats(np.array([1.0]), np.array([0.0]), np.array([0.01]),
                          BucketKey(LEG_TOP, 1.0), wtl_mode="ratio"),
     "wtl_mode must be 'counts' or 'pnl'"),
    (lambda: _breakeven_at_index(0.0), "entry index price must be positive"),
    (lambda: _breakeven_at_index(-2000.0), "entry index price must be positive"),
    (lambda: _backtest(holding=timedelta(hours=1, microseconds=999999)),
     "holding must be a positive whole-second duration, got 1:00:00.999999"),
    (lambda: _backtest(holding=timedelta(0)),
     "holding must be a positive whole-second duration, got 0:00:00"),
    (lambda: _backtest(entry_tolerance=timedelta(minutes=-30)),
     "entry_tolerance must be a non-negative whole-second duration, got -1 day, 23:30:00"),
    (lambda: _backtest(entry_tolerance=timedelta(milliseconds=1)),
     "entry_tolerance must be a non-negative whole-second duration, got 0:00:00.001000"),
], ids=["pct-zero", "pct-above-one", "unknown-leg", "empty-series", "unknown-wtl-mode",
        "breakeven-zero-index", "breakeven-negative-index", "holding-off-whole-seconds",
        "holding-zero", "entry-tolerance-negative", "entry-tolerance-off-whole-seconds"])
def test_options_refuse_a_bad_argument(call, message):
    with pytest.raises(errors.InvalidConfig) as exc:
        call()
    assert str(exc.value) == message


def test_backtest_takes_a_zero_entry_tolerance():
    # The chain quotes on the hour, so every entry and exit is on its window's edge.
    assert _backtest(entry_tolerance=timedelta(0)) == _backtest()
    assert _backtest()[1].trades > 0
