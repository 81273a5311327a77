import dataclasses
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import make_bars, make_flows
from flowcast import errors
from flowcast.events import (
    detect_extremes,
    events_to_csv,
    extract_window,
    threshold_percentile,
    window_track_csvs,
)
from flowcast.ingest import Asset, BarSeries, format_timestamp
from flowcast.series import HOUR, net_inflows

YEAR_2022 = int(datetime(2022, 1, 1, tzinfo=timezone.utc).timestamp())


def hourly_series(nets, start=YEAR_2022):
    return net_inflows(make_flows(nets, start=start), HOUR)


# ---------------------------------------------------------------------------
# detect_extremes
# ---------------------------------------------------------------------------

def test_full_year_top_ten(rng):
    nets = rng.normal(0, 10, size=8760)
    series = hourly_series(nets)
    hits = detect_extremes(series, k=10)
    assert len(hits) == 10
    assert [h.rank_in_year for h in hits] == list(range(1, 11))
    # sort-and-take oracle over the same year
    order = np.argsort(-nets, kind="stable")[:10]
    expected = {YEAR_2022 + 3600 * int(i) for i in order}
    assert {int(h.timestamp.timestamp()) for h in hits} == expected
    assert threshold_percentile(10, 8760) == pytest.approx(1 - 10 / 8760, abs=0)
    assert f"{100 * threshold_percentile(10, 8760):.2f}" == "99.89"


def test_k_larger_than_series_flags_everything():
    series = hourly_series([1.0, 5.0, -2.0])
    hits = detect_extremes(series, k=10)
    assert len(hits) == 3
    assert [h.net_inflow_musd for h in hits] == [5.0, 1.0, -2.0]


def test_threshold_percentile_is_zero_when_every_hour_is_flagged():
    assert threshold_percentile(10, 3) == threshold_percentile(3, 3) == 0.0
    assert threshold_percentile(2, 8) == 0.75


def test_a_year_named_twice_is_flagged_once():
    series = hourly_series([1.0, 5.0, -2.0])
    assert detect_extremes(series, k=2, years=[2022, 2022]) == detect_extremes(series, k=2)


def test_detection_is_permutation_invariant(rng):
    nets = rng.normal(0, 4, size=500)
    flows = make_flows(nets, start=YEAR_2022)
    series = net_inflows(flows, HOUR)
    perm = rng.permutation(len(flows))
    from flowcast.ingest import FlowSeries
    shuffled = FlowSeries(flows.timestamps[perm], flows.assets[perm],
                          flows.inflow_usd[perm], flows.outflow_usd[perm])
    order = np.argsort(shuffled.timestamps)
    shuffled = FlowSeries(shuffled.timestamps[order], shuffled.assets[order],
                          shuffled.inflow_usd[order], shuffled.outflow_usd[order])
    assert detect_extremes(net_inflows(shuffled, HOUR), 10) == detect_extremes(series, 10)


def test_ties_break_to_earlier_timestamp():
    series = hourly_series([3.0, 7.0, 7.0, 1.0])
    hits = detect_extremes(series, k=2)
    assert hits[0].rank_in_year == 1
    assert int(hits[0].timestamp.timestamp()) == YEAR_2022 + 3600
    assert int(hits[1].timestamp.timestamp()) == YEAR_2022 + 7200


def test_hits_dominate_non_hits(rng):
    nets = rng.normal(0, 2, size=800)
    series = hourly_series(nets)
    hits = detect_extremes(series, k=25)
    cutoff = min(h.net_inflow_musd for h in hits)
    hit_ts = {int(h.timestamp.timestamp()) for h in hits}
    for t, v in zip(series.timestamps, series.values):
        if int(t) not in hit_ts:
            assert v <= cutoff


def test_per_year_buckets(rng):
    hours_2021 = 900
    start_2021 = int(datetime(2021, 11, 15, tzinfo=timezone.utc).timestamp())
    nets = rng.normal(0, 5, size=hours_2021 + 500)
    series = hourly_series(nets, start=start_2021)
    hits = detect_extremes(series, k=10, years={2021, 2022})
    assert sum(1 for h in hits if h.year == 2021) == 10
    assert sum(1 for h in hits if h.year == 2022) == 10


def test_empty_year_raises():
    series = hourly_series([1.0, 2.0])
    with pytest.raises(errors.EmptyYear):
        detect_extremes(series, k=5, years={1999})


def test_most_negative_mode():
    series = hourly_series([3.0, -8.0, 2.0, -1.0])
    hits = detect_extremes(series, k=1, most_negative=True)
    assert hits[0].net_inflow_musd == -8.0


def test_events_csv_layout(rng):
    series = hourly_series(rng.normal(0, 5, size=100))
    csv_text = events_to_csv(detect_extremes(series, k=3))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "asset,timestamp,net_inflow_musd,year,rank"
    assert len(lines) == 4
    assert lines[1].startswith("ETH,2022-")


# ---------------------------------------------------------------------------
# extract_window
# ---------------------------------------------------------------------------

def _event_and_data(rng, hours=24 * 10):
    nets = rng.normal(0, 5, size=hours)
    flows = make_flows(nets, start=YEAR_2022)
    bars = make_bars(100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=hours))),
                     start=YEAR_2022)
    series = net_inflows(flows, HOUR)
    hits = detect_extremes(series, k=40)
    # pick a hit comfortably inside the data range
    hit = next(h for h in hits
               if 4 * 86400 < int(h.timestamp.timestamp()) - YEAR_2022 < 6 * 86400)
    return hit, series, bars


def test_window_span(rng):
    hit, series, bars = _event_and_data(rng)
    hours, net, close = extract_window(hit, series, bars, pre=timedelta(days=3),
                                       post=timedelta(days=2))
    t0 = int(hit.timestamp.timestamp())
    assert hours[0] == t0 - 3 * 86400
    assert hours[-1] == t0 + 2 * 86400
    assert (np.diff(hours) == 3600).all()
    assert len(hours) == len(net) == len(close) == 121  # inclusive hourly span
    assert (close > 0).all()
    # Hourly bars: the hour starting at t closes with the bar stamped t.
    assert close.tolist() == bars.close[np.searchsorted(bars.timestamps, hours)].tolist()
    assert net.tolist() == series.values[np.searchsorted(series.timestamps, hours)].tolist()


def test_window_single_point(rng):
    hit, series, bars = _event_and_data(rng)
    hours, net, close = extract_window(hit, series, bars, pre=timedelta(0), post=timedelta(0))
    assert hours.tolist() == [int(hit.timestamp.timestamp())]
    assert net.tolist() == [hit.net_inflow_musd]
    assert len(close) == 1


def test_window_insufficient_coverage(rng):
    nets = rng.normal(0, 5, size=48)
    flows = make_flows(nets, start=YEAR_2022)
    bars = make_bars(np.full(48, 100.0), start=YEAR_2022)
    series = net_inflows(flows, HOUR)
    first_hit = detect_extremes(series, k=48)[-1]
    # force an event in the first hour of the series
    hit = next(h for h in detect_extremes(series, k=48)
               if int(h.timestamp.timestamp()) == YEAR_2022)
    with pytest.raises(errors.InsufficientCoverage):
        extract_window(hit, series, bars, pre=timedelta(days=1), post=timedelta(0))
    assert first_hit is not None


def test_window_grid_is_bounded_by_the_flows(rng):
    # Ten million hours before or after the event: the window fails at the
    # same first missing hour as a grid over all of them would, and allocates
    # no grid beyond the flows (80 MB for 10**7 hours).
    series = net_inflows(make_flows(rng.normal(0, 5, size=240), start=YEAR_2022,
                                    gaps=(200,)), HOUR)
    bars = make_bars(np.full(240, 100.0), start=YEAR_2022)
    hit = detect_extremes(series, k=1)[0]

    def at(hour):
        stamp = datetime.fromtimestamp(YEAR_2022 + 3600 * hour, tz=timezone.utc)
        return dataclasses.replace(hit, timestamp=stamp)

    far, none = timedelta(hours=10**7), timedelta(0)
    for event_hour, pre, post, first_missing_hour in [
            (100, far, none, 100 - 10**7),
            (100, none, far, 200),  # the gap
            (210, none, far, 240),  # the hour after the last
            (244, none, far, 244)]:  # an event past the flows
        tracemalloc.start()
        try:
            with pytest.raises(errors.InsufficientCoverage) as exc:
                extract_window(at(event_hour), series, bars, pre=pre, post=post)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        missing = format_timestamp(YEAR_2022 + 3600 * first_missing_hour)
        assert str(exc.value) == f"no net inflow at {missing}"


@pytest.mark.parametrize("pre,post,name", [
    (timedelta(minutes=30), timedelta(0), "pre 0:30:00"),
    (timedelta(0), timedelta(hours=1, seconds=1), "post 1:00:01")])
def test_window_refuses_a_pre_or_post_off_whole_hours(rng, pre, post, name):
    hit, series, bars = _event_and_data(rng)
    with pytest.raises(errors.InsufficientCoverage,
                       match=f"^{name} is not a whole number of hours$"):
        extract_window(hit, series, bars, pre=pre, post=post)


def test_window_rejects_another_assets_or_horizons_series(rng):
    hit, series, bars = _event_and_data(rng)
    btc = dataclasses.replace(series, asset=Asset.BTC)
    with pytest.raises(errors.InsufficientCoverage):
        extract_window(hit, btc, bars, pre=timedelta(0), post=timedelta(0))
    two_hourly = dataclasses.replace(series, horizon=timedelta(hours=2))
    with pytest.raises(errors.FrequencyMismatch):
        extract_window(hit, two_hourly, bars, pre=timedelta(0), post=timedelta(0))


def test_window_refuses_bars_off_whole_seconds(rng):
    hit, series, bars = _event_and_data(rng)
    half_second = BarSeries(bars.timestamps, bars.open, bars.high, bars.low, bars.close,
                            timedelta(milliseconds=500))
    with pytest.raises(errors.FrequencyMismatch,
                       match="bar frequency must be a positive whole-second duration"):
        extract_window(hit, series, half_second, pre=timedelta(0), post=timedelta(0))


def test_window_track_csvs(rng):
    hit, series, bars = _event_and_data(rng)
    window = extract_window(hit, series, bars, pre=timedelta(hours=2),
                            post=timedelta(hours=1))
    flow_csv, price_csv = window_track_csvs(*window)
    assert flow_csv.startswith("timestamp,net_inflow_musd\n")
    assert price_csv.startswith("timestamp,close\n")
    assert len(flow_csv.strip().split("\n")) == 5


@pytest.mark.parametrize("call,error,message", [
    (lambda hit, series, bars: threshold_percentile(10, 0), errors.EmptyYear, "no observations"),
    (lambda hit, series, bars: detect_extremes(series, k=0),
     errors.EmptyYear, "k must be >= 1, got 0"),
    (lambda hit, series, bars: detect_extremes(
        dataclasses.replace(series, horizon=timedelta(hours=2)), k=1),
     errors.FrequencyMismatch, "extreme detection runs on 1h series, got 2:00:00"),
    (lambda hit, series, bars: extract_window(hit, series, bars, pre=timedelta(hours=-1),
                                              post=timedelta(0)),
     errors.InsufficientCoverage,
     "pre must be a non-negative whole-second duration, got -1 day, 23:00:00"),
    (lambda hit, series, bars: extract_window(hit, series, bars, pre=timedelta(0),
                                              post=timedelta(hours=-2)),
     errors.InsufficientCoverage,
     "post must be a non-negative whole-second duration, got -1 day, 22:00:00"),
    (lambda hit, series, bars: extract_window(
        hit, series, BarSeries(bars.timestamps, bars.open, bars.high, bars.low, bars.close,
                               timedelta(minutes=7)), pre=timedelta(0), post=timedelta(0)),
     errors.FrequencyMismatch, "bar frequency 0:07:00 does not divide 1h"),
], ids=["percentile-no-observations", "k-zero", "two-hour-series", "negative-pre",
        "negative-post", "bar-frequency-not-dividing-an-hour"])
def test_events_refuse_a_bad_argument(rng, call, error, message):
    hit, series, bars = _event_and_data(rng)
    with pytest.raises(error) as exc:
        call(hit, series, bars)
    assert str(exc.value) == message
