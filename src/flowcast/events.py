"""Extreme net-inflow detection and case-study window extraction.

Per UTC calendar year, the k largest hourly net inflows are flagged
(rank 1 = largest; ties broken by earlier timestamp). The flagged hours
can then be cut into plot-ready windows pairing the hourly net-inflow
track with the hourly close-price track.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import EmptyYear, FrequencyMismatch, InsufficientCoverage
from .ingest import (ASSET, INTEGER, NUMBER, TIMESTAMP, Asset, BarSeries, FlowSeries,
                     format_timestamp, to_datetime, write_table)
from .series import HOUR, NetInflowSeries, net_inflows

EVENTS_COLUMNS = (("asset", ASSET), ("timestamp", TIMESTAMP), ("net_inflow_musd", NUMBER),
                  ("year", INTEGER), ("rank", INTEGER))


@dataclass(frozen=True)
class EventHit:
    asset: Asset
    timestamp: datetime
    net_inflow_musd: float
    year: int
    rank_in_year: int


@dataclass
class CaseWindow:
    event: EventHit
    pre: timedelta
    post: timedelta
    flow_track: list[tuple[datetime, float]]   # hourly net inflow, US$M
    price_track: list[tuple[datetime, float]]  # hourly close, USD


def threshold_percentile(k: int, observations: int) -> float:
    """Percentile implied by flagging the top k of ``observations`` hours.

    For k=10 over a full 8,760-hour year this is 1 - 10/8760, which prints
    as the 99.89th percentile.
    """
    if observations <= 0:
        raise EmptyYear("no observations")
    return 1.0 - k / observations


def utc_years(epochs: np.ndarray) -> np.ndarray:
    """UTC calendar year of each epoch second."""
    instants = np.asarray(epochs, dtype=np.int64).astype("datetime64[s]")
    return instants.astype("datetime64[Y]").astype(np.int64) + 1970


def detect_extremes(series: NetInflowSeries, k: int,
                    years: set[int] | None = None,
                    most_negative: bool = False) -> list[EventHit]:
    """Flag the k most extreme net-inflow hours per calendar year.

    By default the largest net inflows are flagged; ``most_negative``
    flips the ranking to catch extreme net outflows instead.
    """
    if k < 1:
        raise EmptyYear(f"k must be >= 1, got {k}")
    if series.horizon != HOUR:
        raise FrequencyMismatch(f"extreme detection runs on 1h series, got {series.horizon}")
    ts = series.timestamps
    vals = series.values
    years_of = utc_years(ts)
    present = set(years_of.tolist())
    wanted = sorted(present) if years is None else sorted(years)
    hits: list[EventHit] = []
    for year in wanted:
        mask = years_of == year
        if not mask.any():
            raise EmptyYear(f"no observations in {year}")
        yt, yv = ts[mask], vals[mask]
        key = yv if most_negative else -yv
        order = np.lexsort((yt, key))
        top = order[:min(k, len(order))]
        for rank, i in enumerate(top, start=1):
            hits.append(EventHit(asset=series.asset, timestamp=to_datetime(yt[i]),
                                 net_inflow_musd=float(yv[i]), year=year,
                                 rank_in_year=rank))
    return hits


def _track(grid: np.ndarray, timestamps: np.ndarray, values: np.ndarray, offset: int,
           missing: str) -> list[tuple[datetime, float]]:
    """(t, the value stamped t + offset) for each grid hour t; the first hour
    without one raises InsufficientCoverage."""
    i = np.searchsorted(timestamps, grid + offset)
    found = i < len(timestamps)
    found[found] = timestamps[i[found]] == grid[found] + offset
    if not found.all():
        raise InsufficientCoverage(f"{missing} {format_timestamp(grid[np.argmin(found)])}")
    return [(to_datetime(t), v) for t, v in zip(grid.tolist(), values[i].tolist())]


def extract_window(event: EventHit, flows: FlowSeries, bars: BarSeries,
                   pre: timedelta, post: timedelta) -> CaseWindow:
    """Cut hourly flow and close-price tracks spanning [event-pre, event+post]."""
    if pre < timedelta(0) or post < timedelta(0):
        raise InsufficientCoverage("pre and post must be non-negative")
    asset_flows = flows.select(event.asset)
    if len(asset_flows) == 0:
        raise InsufficientCoverage(f"no flows for {event.asset.value}")
    hourly = net_inflows(asset_flows, HOUR)

    t0 = int(event.timestamp.timestamp())
    grid = np.arange(t0 - int(pre.total_seconds()),
                     t0 + int(post.total_seconds()) + 1, 3600, dtype=np.int64)

    flow_track = _track(grid, hourly.timestamps, hourly.values, 0, "no net inflow at")

    # Hourly close of the hour starting at t = close of the last bar in [t, t+1h).
    f_s = int(bars.frequency.total_seconds())
    if 3600 % f_s != 0:
        raise FrequencyMismatch(f"bar frequency {bars.frequency} does not divide 1h")
    price_track = _track(grid, bars.timestamps, bars.close, 3600 - f_s,
                         "no bar closing the hour at")
    return CaseWindow(event=event, pre=pre, post=post,
                      flow_track=flow_track, price_track=price_track)


def events_to_csv(hits: list[EventHit]) -> str:
    return write_table(EVENTS_COLUMNS, (
        [h.asset.value for h in hits], [int(h.timestamp.timestamp()) for h in hits],
        [h.net_inflow_musd for h in hits], [h.year for h in hits],
        [h.rank_in_year for h in hits]))


def _track_csv(name: str, track: list[tuple[datetime, float]]) -> str:
    return write_table((("timestamp", TIMESTAMP), (name, NUMBER)),
                       ([int(t.timestamp()) for t, _ in track], [v for _, v in track]))


def window_track_csvs(window: CaseWindow) -> tuple[str, str]:
    """(flow track CSV, price track CSV) for external plotting."""
    return (_track_csv("net_inflow_musd", window.flow_track),
            _track_csv("close", window.price_track))
