import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, make_bars, make_flows
from flowcast import errors
from flowcast.ingest import Asset
from flowcast.series import (NetInflowSeries, ReturnSeries, VolSeries, align, net_inflows,
                             realized_vol, returns)

H1 = timedelta(hours=1)
H2 = timedelta(hours=2)
H3 = timedelta(hours=3)
H4 = timedelta(hours=4)
M5 = timedelta(minutes=5)


# ---------------------------------------------------------------------------
# net_inflows
# ---------------------------------------------------------------------------

def test_net_inflow_single_hour():
    series = net_inflows(make_flows([2.0]), H1)
    # inflow $5M / outflow $3M is stored as net +$2M
    assert series.values.tolist() == [2.0]
    assert series.timestamps.tolist() == [T0]


def test_net_inflow_two_hour_bucket():
    flows = make_flows([1.0, -4.0])
    series = net_inflows(flows, H2)
    assert series.timestamps.tolist() == [T0]
    assert series.values.tolist() == [-3.0]


def test_net_inflow_matches_bucket_sum_oracle(rng):
    nets = rng.normal(0, 5, size=100)
    gaps = rng.choice(100, size=9, replace=False)
    flows = make_flows(nets, gaps=gaps)
    series = net_inflows(flows, H3)
    # buckets sum raw USD first and convert to US$M once at the end
    expected = oracles.bucket_sums(flows.timestamps, flows.net_usd, 3 * 3600)
    assert series.timestamps.tolist() == list(expected)
    assert series.values.tolist() == [v / 1e6 for v in expected.values()]


def test_net_inflow_partial_bucket_dropped():
    series = net_inflows(make_flows([1.0, 1.0, 1.0]), H2)
    # third hour starts a bucket with no partner, so only one point survives
    assert len(series) == 1


def test_net_inflow_bucket_additivity(rng):
    flows = make_flows(rng.normal(0, 3, size=50), gaps=(7, 20))
    one = net_inflows(flows, H1)
    two = net_inflows(flows, H2)
    one_at = dict(zip(one.timestamps.tolist(), one.values.tolist()))
    for t, v in zip(two.timestamps, two.values):
        parts = [one_at.get(int(t)), one_at.get(int(t) + 3600)]
        assert None not in parts
        assert v == pytest.approx(sum(parts), rel=1e-15)


def test_net_inflow_empty_input():
    with pytest.raises(errors.EmptyInput):
        net_inflows(make_flows([]), H1)


def test_net_inflow_mixed_assets_rejected():
    from flowcast.ingest import Asset, FlowSeries
    a = make_flows([1.0])
    b = make_flows([1.0], asset=Asset.BTC)
    mixed = FlowSeries(np.concatenate([b.timestamps, a.timestamps]),
                       np.concatenate([b.assets, a.assets]),
                       np.concatenate([b.inflow_usd, a.inflow_usd]),
                       np.concatenate([b.outflow_usd, a.outflow_usd]))
    with pytest.raises(errors.MixedAssets):
        net_inflows(mixed, H1)


# ---------------------------------------------------------------------------
# returns
# ---------------------------------------------------------------------------

def test_return_single_horizon():
    series = returns(make_bars([100.0, 102.0]), H1)
    assert series.timestamps.tolist() == [T0 + 3600]
    assert series.values.tolist() == pytest.approx([0.02])


def test_returns_constant_price():
    series = returns(make_bars([50.0] * 30), H2)
    assert len(series) > 0
    assert np.all(series.values == 0.0)


def test_returns_match_ratio_oracle(rng):
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=200)))
    gaps = rng.choice(200, size=12, replace=False)
    bars = make_bars(closes, gaps=gaps)
    series = returns(bars, H4)
    expected = oracles.forward_returns(bars.timestamps, bars.close, 3600, 4 * 3600)
    assert series.timestamps.tolist() == list(expected)
    np.testing.assert_allclose(series.values, list(expected.values()), rtol=1e-12)


def test_returns_frequency_must_divide_horizon():
    with pytest.raises(errors.FrequencyMismatch):
        returns(make_bars([1.0, 1.0], frequency=timedelta(minutes=25)), H1)


# ---------------------------------------------------------------------------
# realized_vol
# ---------------------------------------------------------------------------

def test_vol_constant_price():
    bars = make_bars([75.0] * 36, frequency=M5)
    series = realized_vol(make_bars([75.0] * 36, frequency=M5), H1)
    assert len(series) > 0
    assert np.all(series.values == 0.0)


def test_vol_two_sub_returns_hand_value():
    # window sub-returns +1% then -1%: sample std with n-1=1 is sqrt(2e-4)
    closes = [100.0, 101.0, 99.99]
    bars = make_bars(closes, frequency=timedelta(minutes=30), start=T0 - 1800)
    series = realized_vol(bars, H1)
    assert series.timestamps.tolist() == [T0]
    assert series.values[0] == pytest.approx(0.01414213562373095, rel=1e-12)


def test_vol_matches_two_pass_oracle(rng):
    closes = 2000.0 * np.exp(np.cumsum(rng.normal(0, 0.002, size=6 * 60)))
    bars = make_bars(closes, frequency=timedelta(minutes=1))
    series = realized_vol(bars, H1)
    expected = oracles.window_vols(bars.timestamps, bars.close, 60, 3600)
    assert series.timestamps.tolist() == list(expected)
    np.testing.assert_allclose(series.values, list(expected.values()), rtol=1e-12)
    # each window uses 60 one-minute sub-returns
    assert len(series) == 5


def test_vol_scale_invariance(rng):
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=48)))
    a = realized_vol(make_bars(closes, frequency=M5), H1)
    b = realized_vol(make_bars(closes * 37.5, frequency=M5), H1)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_vol_insufficient_sub_bars():
    with pytest.raises(errors.InsufficientSubBars):
        realized_vol(make_bars([1.0, 1.0, 1.0]), H1)


@pytest.mark.parametrize("seed", range(3))
def test_series_match_window_loops_on_gappy_bars(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.002, size=n)))
    # The first bar is never dropped and sits off every horizon grid.
    start = T0 + 300 * int(rng.integers(1, 12))
    gaps = set(rng.choice(np.arange(1, n), size=n // 150, replace=False).tolist())
    bars = make_bars(closes, frequency=M5, start=start, gaps=gaps)
    for hours in (1, 2, 3, 4, 6):
        h_s = 3600 * hours
        for got, want in (
                (returns(bars, timedelta(hours=hours)),
                 oracles.forward_returns(bars.timestamps, bars.close, 300, h_s)),
                (realized_vol(bars, timedelta(hours=hours)),
                 oracles.window_vols(bars.timestamps, bars.close, 300, h_s,
                                     std=oracles.numpy_std))):
            assert 0 < len(want) < (n * 300) // h_s
            assert got.timestamps.tolist() == list(want)
            assert [v.hex() for v in got.values.tolist()] == [v.hex() for v in want.values()]


def test_return_composition_over_sub_bars(rng):
    closes = 300.0 * np.exp(np.cumsum(rng.normal(0, 0.003, size=72)))
    bars = make_bars(closes, frequency=M5)
    rets = returns(bars, H1)
    f_s = 300
    close_at = dict(zip(bars.timestamps.tolist(), bars.close.tolist()))
    for t, r in zip(rets.timestamps, rets.values):
        base = int(t) - f_s  # the bar whose close is the price level at t
        subs = [close_at[base + (j + 1) * f_s] / close_at[base + j * f_s] - 1.0
                for j in range(12)]
        gross = np.prod([1.0 + s for s in subs])
        assert 1.0 + r == pytest.approx(gross, rel=1e-12)


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------

def _series_at(cls, hours, values, horizon=H1):
    from flowcast.ingest import Asset
    ts = np.array([T0 + 3600 * h for h in hours], dtype=np.int64)
    return cls(Asset.ETH, horizon, ts, np.asarray(values, dtype=np.float64))


def test_align_basic_pairing():
    from flowcast.series import NetInflowSeries, ReturnSeries
    pred = _series_at(NetInflowSeries, [0, 1, 2], [1.0, 2.0, 3.0])
    resp = _series_at(ReturnSeries, [1, 2, 3], [0.1, 0.2, 0.3])
    sample = align(pred, resp)
    assert sample.n == 3
    assert sample.predictor.tolist() == [1.0, 2.0, 3.0]
    assert sample.response.tolist() == pytest.approx([0.1, 0.2, 0.3])


def test_align_empty():
    from flowcast.series import NetInflowSeries, ReturnSeries
    pred = _series_at(NetInflowSeries, [0, 1, 2], [1.0, 2.0, 3.0])
    resp = _series_at(ReturnSeries, [10, 11], [0.1, 0.2])
    with pytest.raises(errors.EmptyAlignment):
        align(pred, resp)


def test_align_horizon_mismatch():
    from flowcast.series import NetInflowSeries, ReturnSeries
    pred = _series_at(NetInflowSeries, [0, 2], [1.0, 2.0], horizon=H2)
    resp = _series_at(ReturnSeries, [1, 2, 3], [0.1, 0.2, 0.3])
    with pytest.raises(errors.HorizonMismatch):
        align(pred, resp)


def test_align_matches_intersection_oracle(rng):
    from flowcast.series import NetInflowSeries, ReturnSeries
    hours = np.arange(200)
    pred_hours = sorted(rng.choice(hours, size=180, replace=False).tolist())
    resp_hours = sorted(rng.choice(hours, size=180, replace=False).tolist())
    ctrl_hours = sorted(rng.choice(hours, size=180, replace=False).tolist())
    pred = _series_at(NetInflowSeries, pred_hours, rng.normal(size=180))
    resp = _series_at(ReturnSeries, resp_hours, rng.normal(size=180))
    ctrl = _series_at(ReturnSeries, ctrl_hours, rng.normal(size=180))
    expected = {h for h in pred_hours
                if h + 1 in set(resp_hours) and h in set(ctrl_hours)}
    sample = align(pred, resp, control=ctrl)
    assert sample.n == len(expected)
    got_hours = ((sample.timestamps - T0) // 3600).tolist()
    assert sorted(expected) == got_hours


def test_align_response_never_precedes_predictor(rng):
    from flowcast.series import NetInflowSeries, ReturnSeries
    pred_hours = sorted(rng.choice(100, size=70, replace=False).tolist())
    resp_hours = sorted(rng.choice(100, size=70, replace=False).tolist())
    pred = _series_at(NetInflowSeries, pred_hours, rng.normal(size=70))
    resp = _series_at(ReturnSeries, resp_hours, rng.normal(size=70))
    try:
        sample = align(pred, resp)
    except errors.EmptyAlignment:
        return
    # response timestamp = predictor timestamp + horizon > predictor timestamp
    assert sample.horizon.total_seconds() > 0
    assert sample.n > 0


@st.composite
def _align_inputs(draw):
    """Predictor, response and optional control at one horizon, with random
    gaps, empty, single-point or disjoint series, and at most one
    timestamp moved off the horizon grid."""
    h_s = 3600 * draw(st.sampled_from((1, 2, 3, 4, 6)))
    horizon = timedelta(seconds=h_s)

    def series(cls, shift=0):
        kind = draw(st.sampled_from(("gappy",) * 6 + ("empty", "single")))
        if kind == "empty":
            buckets = []
        elif kind == "single":
            buckets = [draw(st.integers(0, 12))]
        else:
            dropped = draw(st.sets(st.integers(0, 39), max_size=30))
            buckets = [b for b in range(draw(st.integers(8, 40))) if b not in dropped]
        ts = np.array([T0 + h_s * (b + shift) for b in buckets], dtype=np.int64)
        values = draw(st.lists(st.floats(width=64), min_size=len(ts), max_size=len(ts)))
        return cls(Asset.ETH, horizon, ts, np.array(values, dtype=np.float64))

    pieces = [series(NetInflowSeries),
              series(ReturnSeries, shift=draw(st.sampled_from((0,) * 6 + (100, -100))))]
    control = draw(st.sampled_from(("other", "response", "none")))
    if control == "other":
        pieces.append(series(VolSeries))
    off_grid = draw(st.booleans()) and any(len(p) for p in pieces)
    if off_grid:
        victim = draw(st.sampled_from([p for p in pieces if len(p)]))
        victim.timestamps[draw(st.integers(0, len(victim) - 1))] += draw(st.integers(1, h_s - 1))
    ctrl = pieces[1] if control == "response" else (pieces[2] if control == "other" else None)
    return pieces[0], pieces[1], ctrl, off_grid


@settings(max_examples=400)
@given(_align_inputs())
def test_align_matches_reference_align(case):
    pred, resp, ctrl, off_grid = case
    if off_grid:
        with pytest.raises(errors.HorizonMismatch, match="off the"):
            align(pred, resp, control=ctrl)
        return
    try:
        want = oracles.reference_align(pred, resp, control=ctrl)
    except errors.FlowcastError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            align(pred, resp, control=ctrl)
        return
    got = align(pred, resp, control=ctrl)
    assert got.horizon == want.horizon
    assert (got.control is None) == (want.control is None)
    for name in ("timestamps", "predictor", "response", "control"):
        a, b = getattr(got, name), getattr(want, name)
        if b is not None:
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
