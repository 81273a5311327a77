import re
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, make_bars, make_flows
from flowcast import errors
from flowcast.ingest import Asset, BarSeries, bars_to_csv, parse_bars
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


def test_net_inflow_memory_follows_the_rows_not_the_horizon(rng):
    # A million-hour horizon over 400 hours fills no bucket: the result is
    # empty, with no per-hour gather of the horizon's length (8 MB).
    flows = make_flows(rng.normal(0, 3, size=400))
    tracemalloc.start()
    try:
        series = net_inflows(flows, timedelta(hours=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (series.asset, series.horizon, len(series)) == (Asset.ETH, timedelta(hours=10**6), 0)
    assert (series.timestamps.dtype, series.values.dtype) == (np.int64, np.float64)


def test_net_inflow_empty_input():
    with pytest.raises(errors.EmptyInput):
        net_inflows(make_flows([]), H1)


def test_net_inflow_refuses_a_horizon_off_whole_hours():
    with pytest.raises(errors.FrequencyMismatch,
                       match="^horizon 1:30:00 is not a whole number of hours$"):
        net_inflows(make_flows([1.0, 2.0]), timedelta(minutes=90))


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


def _flows_at(hours, nets_musd):
    from flowcast.ingest import FlowSeries
    ts = np.array([T0 + 3600 * h for h in hours], dtype=np.int64)
    nets = np.asarray(nets_musd, dtype=np.float64) * 1e6
    return FlowSeries(ts, np.full(len(ts), "ETH", dtype="U4"),
                      np.maximum(nets, 0.0), np.maximum(-nets, 0.0))


def test_net_inflow_sums_ascending_hours():
    series = net_inflows(_flows_at([0, 1, 2, 3], [1.0, 4.0, 2.0, 8.0]), H2)
    assert series.values.tolist() == [5.0, 10.0]


def test_net_inflow_rejects_hours_out_of_order():
    # Grouping neighbours would sum hours {0, 2} and {1, 3}: [3, 12] at 2 h.
    with pytest.raises(errors.InvalidConfig,
                       match="^flow hours must ascend: 2021-01-07T01:00:00Z follows "
                             "2021-01-07T02:00:00Z$"):
        net_inflows(_flows_at([0, 2, 1, 3], [1.0, 2.0, 4.0, 8.0]), H2)


def test_net_inflow_rejects_a_repeated_hour():
    with pytest.raises(errors.DuplicateTimestamp,
                       match="^duplicate flow hour 2021-01-07T01:00:00Z$"):
        net_inflows(_flows_at([0, 1, 1, 2, 3], [1.0, 2.0, 4.0, 8.0, 16.0]), H2)


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


@pytest.mark.parametrize("offset", [60, 150, 299])
def test_bars_off_the_epoch_grid_open_no_window(offset):
    # No 5-minute bar closes at t - 5 min for an epoch-aligned t, so the window
    # loops find no window, and neither may the series.
    closes = 100.0 * np.exp(np.cumsum(np.random.default_rng(offset).normal(0, 0.002, 120)))
    bars = make_bars(closes, frequency=M5, start=T0 + offset)
    for hours in (1, 2, 3, 4, 6):
        h_s = 3600 * hours
        assert oracles.forward_returns(bars.timestamps, bars.close, 300, h_s) == {}
        assert oracles.window_vols(bars.timestamps, bars.close, 300, h_s) == {}
        assert len(returns(bars, timedelta(hours=hours))) == 0
        assert len(realized_vol(bars, timedelta(hours=hours))) == 0


def test_parse_and_series_memory_follows_the_rows(rng, tmp_path):
    # 400 hours of 5-minute bars, then one bar ten years after the last.
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.002, size=12 * 400 + 1)))
    bars = make_bars(closes, frequency=M5)
    far = 10 * 365 * 86400
    bars.timestamps[-1] += far
    path = tmp_path / "bars.csv"
    path.write_text(bars_to_csv(bars), encoding="utf-8")
    near = make_bars(closes[:-1], frequency=M5)

    tracemalloc.start()
    try:
        parsed, gaps = parse_bars(path, M5)
        series = [(fn(parsed, timedelta(hours=h)), fn(near, timedelta(hours=h)))
                  for h in (1, 2, 3, 4, 6) for fn in (returns, realized_vol)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert gaps == (400 * 3600 + far) // 300 + 1 - len(closes)
    for got, want in series:
        assert (got.timestamps.tobytes(), got.values.tobytes()) == (
            want.timestamps.tobytes(), want.values.tobytes())


def test_vol_with_gaps_in_the_first_and_last_windows_matches_window_loop(rng):
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.002, size=12 * 10)))
    # Of the nine windows, the first (T0 + 1 h) holds bars 11-23 and the last
    # (T0 + 9 h) bars 107-119; the first loses its opening bar, the last bar 118.
    bars = make_bars(closes, frequency=M5, gaps=(11, 118))
    got = realized_vol(bars, H1)
    want = oracles.window_vols(bars.timestamps, bars.close, 300, 3600, std=oracles.numpy_std)
    assert list(want) == [T0 + 3600 * k for k in range(2, 9)]
    assert got.timestamps.tolist() == list(want)
    assert [v.hex() for v in got.values.tolist()] == [v.hex() for v in want.values()]


def _vol_block_cases():
    rng = np.random.default_rng(30)
    path = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.002, size=12 * 40)))

    def runs(*pieces):
        """Bars of 5-minute runs, each (first timestamp, bar count)."""
        ts = np.concatenate([t + 300 * np.arange(n) for t, n in pieces]).astype(np.int64)
        return BarSeries(ts, path[:len(ts)], path[:len(ts)], path[:len(ts)], path[:len(ts)], M5)

    return {
        # 7 one-hour windows: a last block of one window in blocks of 1, 2 or 3.
        "gapless": make_bars(path[:12 * 7 + 1], frequency=M5, start=T0 - 300),
        "gappy": make_bars(path, frequency=M5, gaps=(11, 50, 51, 200, 333)),
        # After the gap the windows open 10 minutes into the second run.
        "multi-run": runs((T0 - 300, 12 * 14 + 1), (T0 + 3600 * 17 + 300, 12 * 20)),
        # A run a minute off the 5-minute grid opens no window; the run after it does.
        "off-grid": runs((T0 + 60, 12 * 5), (T0 + 3600 * 6 - 300, 12 * 7 + 1)),
    }


@pytest.mark.parametrize("windows", [1, 2, 3])
def test_vol_blocks_match_the_window_loop_at_every_edge(monkeypatch, windows):
    cases = _vol_block_cases()
    assert len(realized_vol(cases["gapless"], H1)) == 7
    for name, bars in cases.items():
        for hours in (1, 2, 3):
            # A block of `windows` windows of 12 * hours sub-returns each.
            monkeypatch.setattr("flowcast.series._VOL_BLOCK_RETURNS", windows * 12 * hours)
            got = realized_vol(bars, timedelta(hours=hours))
            want = oracles.window_vols(bars.timestamps, bars.close, 300, 3600 * hours,
                                       std=oracles.numpy_std)
            assert len(want) >= 2, (name, hours)
            assert got.timestamps.tolist() == list(want), (name, hours)
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
    from flowcast.ingest import Asset, bars_to_csv, parse_bars
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


def test_a_second_align_gives_the_same_bytes(rng):
    pred = _series_at(NetInflowSeries, range(0, 60, 1), rng.normal(size=60))
    resp = _series_at(ReturnSeries, range(3, 70, 1), rng.normal(size=67))
    ctrl = _series_at(VolSeries, range(0, 50, 2), rng.normal(size=25))
    for control in (None, resp, ctrl):
        first, second = align(pred, resp, control=control), align(pred, resp, control=control)
        assert first.n > 0
        for name in ("timestamps", "predictor", "response", "control"):
            a, b = getattr(first, name), getattr(second, name)
            assert (a is None and b is None) or (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
            assert a is None or a.flags.writeable


def test_align_raises_off_grid_on_every_call():
    pred = _series_at(NetInflowSeries, [0, 1, 2], [1.0, 2.0, 3.0])
    resp = _series_at(ReturnSeries, [1, 2, 3], [0.1, 0.2, 0.3])
    resp.timestamps[1] += 60
    for _ in range(3):
        with pytest.raises(errors.HorizonMismatch, match="off the 1:00:00 grid"):
            align(pred, resp)


def test_cached_grid_arrays_are_read_only():
    pred = _series_at(NetInflowSeries, [2, 3, 5], [1.0, 2.0, 3.0])
    resp = _series_at(ReturnSeries, [3, 4, 6], [0.1, 0.2, 0.3])
    align(pred, resp)
    grid = pred.grid
    assert grid.first == (T0 + 2 * 3600) // 3600
    assert grid.present.tolist() == [True, True, False, True]
    assert grid.values.tolist() == [1.0, 2.0, 0.0, 3.0]
    for arr in (grid.present, grid.values, resp.grid.present, resp.grid.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
