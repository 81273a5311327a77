"""Horizon series construction: net inflows, forward returns, realized vol.

Conventions shared by every series here:

* Buckets are anchored to the Unix epoch: a series at horizon ``h`` has
  points only at timestamps that are exact multiples of ``h``, so samples
  are non-overlapping and different series align trivially.
* The price level at instant ``t`` is the close of the bar that *ends*
  at ``t``. A return point at ``t`` is the forward return over
  ``[t, t+h)``; a volatility point at ``t`` is the sample standard
  deviation (n-1 denominator) of the sub-bar close-to-close returns
  inside that same window, so ``(1+ret) == prod(1+sub returns)`` exactly
  on gapless data.
* Windows touched by any missing bar or flow hour are dropped, never
  filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .errors import (
    EmptyAlignment,
    EmptyInput,
    FrequencyMismatch,
    HorizonMismatch,
    InsufficientSubBars,
    MixedAssets,
)
from .ingest import Asset, BarSeries, FlowSeries

HOUR = timedelta(hours=1)
USD_PER_MUSD = 1e6


def _seconds(duration: timedelta, name: str = "duration") -> int:
    s = duration.total_seconds()
    if s <= 0 or s != int(s):
        raise FrequencyMismatch(f"{name} must be a positive whole-second duration")
    return int(s)


@dataclass
class _HorizonSeries:
    asset: Asset | None
    horizon: timedelta
    timestamps: np.ndarray  # int64 epoch seconds, multiples of horizon
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


class NetInflowSeries(_HorizonSeries):
    """Net inflow per horizon bucket, in US$ millions."""


class ReturnSeries(_HorizonSeries):
    """Forward simple return per horizon bucket, as a decimal."""


class VolSeries(_HorizonSeries):
    """Realized volatility per horizon bucket (sub-bar return std)."""


@dataclass
class AlignedSample:
    """Predictor/response rows paired so response lags predictor by one horizon."""

    timestamps: np.ndarray  # predictor timestamps, ascending
    predictor: np.ndarray
    response: np.ndarray
    control: np.ndarray | None
    horizon: timedelta

    @property
    def n(self) -> int:
        return len(self.timestamps)


def net_inflows(flows: FlowSeries, horizon: timedelta) -> NetInflowSeries:
    """Sum hourly net flows into non-overlapping horizon buckets (US$M).

    A bucket is emitted only when every constituent hour is present.
    """
    if len(flows) == 0:
        raise EmptyInput("no flow records")
    if not (flows.assets == flows.assets[0]).all():
        raise MixedAssets(f"expected one asset, got {[a.value for a in flows.asset_set()]}")
    h_s = _seconds(horizon, "horizon")
    if h_s % 3600 != 0:
        raise FrequencyMismatch(f"horizon {horizon} is not a whole number of hours")
    hours_per_bucket = h_s // 3600

    ts = flows.timestamps
    net = flows.net_usd
    bucket_ids = ts // h_s
    uniq, start, counts = np.unique(bucket_ids, return_index=True, return_counts=True)
    full = counts == hours_per_bucket
    # Sum each full bucket strictly left to right (hours are contiguous in the
    # sorted array), so results match an element-by-element oracle exactly.
    idx = start[full][:, None] + np.arange(hours_per_bucket)
    vals = net[idx]
    sums = vals[:, 0].copy()
    for j in range(1, hours_per_bucket):
        sums += vals[:, j]
    return NetInflowSeries(asset=Asset(flows.assets[0]), horizon=horizon,
                           timestamps=uniq[full] * h_s,
                           values=sums / USD_PER_MUSD)


def _window_starts(bars: BarSeries, h_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Epoch-aligned window timestamps t whose bars [t-f, t+h-f] fall between
    the first and last bar, and the ``close_grid`` index of the bar at t-f."""
    if len(bars) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    f_s = _seconds(bars.frequency, "bar frequency")
    g0 = int(bars.timestamps[0])
    last = int(bars.timestamps[-1])
    t_first = -((-(g0 + f_s)) // h_s) * h_s  # ceil to the h grid
    t_last = ((last - h_s + f_s) // h_s) * h_s  # below t_first: no window fits
    t = np.arange(t_first, t_last + 1, h_s, dtype=np.int64)
    return t, (t - f_s - g0) // f_s


def returns(bars: BarSeries, horizon: timedelta) -> ReturnSeries:
    """Forward simple returns close(t+h)/close(t) - 1 on the horizon grid."""
    f_s = _seconds(bars.frequency, "bar frequency")
    h_s = _seconds(horizon, "horizon")
    if h_s % f_s != 0:
        raise FrequencyMismatch(f"bar frequency {bars.frequency} does not divide {horizon}")
    nsub = h_s // f_s
    t, a = _window_starts(bars, h_s)
    if len(t) == 0:
        return ReturnSeries(bars.asset, horizon, np.empty(0, np.int64), np.empty(0))
    closes, present = bars.close_grid, bars.close_coverage
    span = nsub + 1  # bars at t-f .. t+h-f
    covered = present[a + nsub] - np.where(a > 0, present[a - 1], 0) == span
    t, a = t[covered], a[covered]
    vals = closes[a + nsub] / closes[a] - 1.0
    return ReturnSeries(bars.asset, horizon, t, vals)


def realized_vol(bars: BarSeries, horizon: timedelta) -> VolSeries:
    """Sample std of sub-bar simple returns within each horizon window.

    The bars themselves are the sub-bars: ``bars.frequency`` must divide
    the horizon with at least two bars per window.
    """
    f_s = _seconds(bars.frequency, "bar frequency")
    h_s = _seconds(horizon, "horizon")
    if h_s % f_s != 0:
        raise FrequencyMismatch(f"sub_frequency {bars.frequency} does not divide {horizon}")
    nsub = h_s // f_s
    if nsub < 2:
        raise InsufficientSubBars(
            f"{horizon} window holds {nsub} sub-bar(s); need at least 2")
    t, a = _window_starts(bars, h_s)
    if len(t) == 0:
        return VolSeries(bars.asset, horizon, np.empty(0, np.int64), np.empty(0))
    # Window i holds sub-returns a[i]+1 .. a[i]+nsub, and a steps by nsub.
    windows = bars.sub_returns[a[0] + 1:a[0] + 1 + len(t) * nsub].reshape(len(t), nsub)
    valid = ~np.isnan(windows).any(axis=1)
    t, windows = t[valid], windows[valid]
    vals = np.std(windows, axis=1, ddof=1) if len(t) else np.empty(0)
    return VolSeries(bars.asset, horizon, t, vals)


def align(predictor: NetInflowSeries, response: ReturnSeries | VolSeries,
          control: _HorizonSeries | None = None,
          horizon: timedelta | None = None) -> AlignedSample:
    """Pair predictor(t) (and control(t)) with response(t + horizon).

    Only timestamps where all requested points exist survive; the response
    therefore never precedes its predictor. Series pair by bucket index
    ``timestamp // horizon``; a timestamp off that grid raises HorizonMismatch.
    """
    if horizon is None:
        horizon = predictor.horizon
    pieces = [predictor, response] + ([control] if control is not None else [])
    for s in pieces:
        if s.horizon != horizon:
            raise HorizonMismatch(f"series at {s.horizon}, expected {horizon}")
    h_s = _seconds(horizon, "horizon")
    if any((s.timestamps % h_s).any() for s in pieces):
        raise HorizonMismatch(f"series has timestamps off the {horizon} grid")
    buckets = [s.timestamps // h_s for s in pieces]
    buckets[1] = buckets[1] - 1  # response(t + horizon) pairs with predictor(t)
    if not all(len(b) for b in buckets):
        raise EmptyAlignment("no overlapping predictor/response timestamps")

    # Scatter each series over the span of buckets they share; keep those in all.
    lo, hi = max(b[0] for b in buckets), min(b[-1] for b in buckets)
    present = np.ones(max(hi - lo + 1, 0), dtype=bool)
    dense = []
    for s, b in zip(pieces, buckets):
        inside = slice(*np.searchsorted(b, (lo, hi + 1)))
        at = b[inside] - lo
        here, values = np.zeros(len(present), bool), np.empty(len(present), s.values.dtype)
        here[at], values[at] = True, s.values[inside]
        present &= here
        dense.append(values)
    rows = np.flatnonzero(present)
    if len(rows) == 0:
        raise EmptyAlignment("no overlapping predictor/response timestamps")
    ctrl = dense[2][rows] if control is not None else None
    return AlignedSample(timestamps=(rows + lo) * h_s, predictor=dense[0][rows],
                         response=dense[1][rows], control=ctrl, horizon=horizon)
