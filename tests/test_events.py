import dataclasses
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
from flowcast.ingest import Asset
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
    window = extract_window(hit, series, bars, pre=timedelta(days=3),
                            post=timedelta(days=2))
    t0 = hit.timestamp
    assert window.flow_track[0][0] == t0 - timedelta(days=3)
    assert window.flow_track[-1][0] == t0 + timedelta(days=2)
    assert len(window.flow_track) == 121  # inclusive hourly span
    assert len(window.price_track) == 121
    assert window.price_track[0][1] > 0


def test_window_single_point(rng):
    hit, series, bars = _event_and_data(rng)
    window = extract_window(hit, series, bars, pre=timedelta(0), post=timedelta(0))
    assert len(window.flow_track) == 1
    assert window.flow_track[0][0] == hit.timestamp
    assert window.flow_track[0][1] == pytest.approx(hit.net_inflow_musd)


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


def test_window_rejects_another_assets_or_horizons_series(rng):
    hit, series, bars = _event_and_data(rng)
    btc = dataclasses.replace(series, asset=Asset.BTC)
    with pytest.raises(errors.InsufficientCoverage):
        extract_window(hit, btc, bars, pre=timedelta(0), post=timedelta(0))
    two_hourly = dataclasses.replace(series, horizon=timedelta(hours=2))
    with pytest.raises(errors.FrequencyMismatch):
        extract_window(hit, two_hourly, bars, pre=timedelta(0), post=timedelta(0))


def test_window_track_csvs(rng):
    hit, series, bars = _event_and_data(rng)
    window = extract_window(hit, series, bars, pre=timedelta(hours=2),
                            post=timedelta(hours=1))
    flow_csv, price_csv = window_track_csvs(window)
    assert flow_csv.startswith("timestamp,net_inflow_musd\n")
    assert price_csv.startswith("timestamp,close\n")
    assert len(flow_csv.strip().split("\n")) == 5
