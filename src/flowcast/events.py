"""Extreme net-inflow detection and case-study window extraction.

Per UTC calendar year, the k largest hourly net inflows are flagged
(rank 1 = largest; ties broken by earlier timestamp). A flagged hour can
then be cut into a plot-ready window: three arrays over the hours from
``event - pre`` to ``event + post``, the hour's epoch second, its net
inflow and the close of its last bar, which ``window_track_csvs`` writes
as the flow and price track files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable

from ._lazy import np
from .errors import EmptyYear, FrequencyMismatch, InsufficientCoverage
from .ingest import (ASSET, INTEGER, NUMBER, TIMESTAMP, Asset, BarSeries, _seconds,
                     format_timestamp, to_datetime, write_table)
from .series import HOUR, NetInflowSeries

EVENTS_COLUMNS = (("asset", ASSET), ("timestamp", TIMESTAMP), ("net_inflow_musd", NUMBER),
                  ("year", INTEGER), ("rank", INTEGER))


@dataclass(frozen=True)
class EventHit:
    asset: Asset
    timestamp: datetime
    net_inflow_musd: float
    year: int
    rank_in_year: int


def threshold_percentile(k: int, observations: int) -> float:
    """Percentile implied by flagging the top k of ``observations`` hours.

    For k=10 over a full 8,760-hour year this is 1 - 10/8760, which prints
    as the 99.89th percentile; a k of at least ``observations`` flags every
    hour, which is the 0th.
    """
    if observations <= 0:
        raise EmptyYear("no observations")
    return 1.0 - min(k, observations) / observations


def utc_years(epochs: np.ndarray) -> np.ndarray:
    """UTC calendar year of each epoch second."""
    instants = np.asarray(epochs, dtype=np.int64).astype("datetime64[s]")
    return instants.astype("datetime64[Y]").astype(np.int64) + 1970


def detect_extremes(series: NetInflowSeries, k: int,
                    years: Iterable[int] | None = None,
                    most_negative: bool = False) -> list[EventHit]:
    """Flag the k most extreme net-inflow hours per calendar year.

    ``years`` defaults to every year of the series; a year named twice is
    flagged once. By default the largest net inflows are flagged;
    ``most_negative`` flips the ranking to catch extreme net outflows instead.
    """
    if k < 1:
        raise EmptyYear(f"k must be >= 1, got {k}")
    if series.horizon != HOUR:
        raise FrequencyMismatch(f"extreme detection runs on 1h series, got {series.horizon}")
    ts = series.timestamps
    vals = series.values
    years_of = utc_years(ts)
    present = set(years_of.tolist())
    wanted = sorted(present if years is None else set(years))
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
           missing: str) -> np.ndarray:
    """The value stamped t + offset for each grid hour t; the first hour
    without one raises InsufficientCoverage."""
    i = np.searchsorted(timestamps, grid + offset)
    found = i < len(timestamps)
    found[found] = timestamps[i[found]] == grid[found] + offset
    if not found.all():
        raise InsufficientCoverage(f"{missing} {format_timestamp(grid[np.argmin(found)])}")
    return values[i]


def extract_window(event: EventHit, hourly: NetInflowSeries, bars: BarSeries,
                   pre: timedelta, post: timedelta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hours, net_inflow_musd, close) over [event-pre, event+post]: each
    hour's epoch second, the event asset's net inflow in it (US$M) and the
    close of its last bar (USD). ``pre`` and ``post`` must be non-negative
    whole hours."""
    for name, span in (("pre", pre), ("post", post)):
        if span % HOUR:
            raise InsufficientCoverage(f"{name} {span} is not a whole number of hours")
    pre_s, post_s = (_seconds(span, name, allow_zero=True, error=InsufficientCoverage)
                     for name, span in (("pre", pre), ("post", post)))
    if hourly.asset != event.asset:
        raise InsufficientCoverage(f"no flows for {event.asset.value}")
    if hourly.horizon != HOUR:
        raise FrequencyMismatch(f"case windows cut 1h series, got {hourly.horizon}")

    # The flows bound the grid, not pre or post: a window that starts outside
    # them misses its first hour, and one that runs past them misses the hour
    # after their last, if no earlier one.
    t0 = int(event.timestamp.timestamp())
    start, hours = t0 - pre_s, hourly.timestamps
    if len(hours) == 0 or not hours[0] <= start <= hours[-1]:
        raise InsufficientCoverage(f"no net inflow at {format_timestamp(start)}")
    stop = min(t0 + post_s, int(hours[-1]) + 3600)
    grid = np.arange(start, stop + 1, 3600, dtype=np.int64)

    net_inflow_musd = _track(grid, hourly.timestamps, hourly.values, 0, "no net inflow at")

    # Hourly close of the hour starting at t = close of the last bar in [t, t+1h).
    f_s = _seconds(bars.frequency, "bar frequency")
    if 3600 % f_s != 0:
        raise FrequencyMismatch(f"bar frequency {bars.frequency} does not divide 1h")
    close = _track(grid, bars.timestamps, bars.close, 3600 - f_s, "no bar closing the hour at")
    return grid, net_inflow_musd, close


def events_to_csv(hits: list[EventHit]) -> str:
    return write_table(EVENTS_COLUMNS, (
        [h.asset.value for h in hits], [int(h.timestamp.timestamp()) for h in hits],
        [h.net_inflow_musd for h in hits], [h.year for h in hits],
        [h.rank_in_year for h in hits]))


def window_track_csvs(hours: np.ndarray, net_inflow_musd: np.ndarray,
                      close: np.ndarray) -> tuple[str, str]:
    """(flow track CSV, price track CSV) of a window, for external plotting."""
    return (write_table((("timestamp", TIMESTAMP), ("net_inflow_musd", NUMBER)),
                        (hours, net_inflow_musd)),
            write_table((("timestamp", TIMESTAMP), ("close", NUMBER)), (hours, close)))
