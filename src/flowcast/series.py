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
* Returns and volatility read the sorted bars row by row, so their cost
  follows the bars, not the time they span; bars off the epoch grid of
  their frequency open no window. Volatility takes its sub-returns from
  the closes a block of windows at a time, so beyond its result it holds
  one block (about ``_VOL_BLOCK_RETURNS`` returns), not a return per bar.
* Each horizon series keeps its bucket grid once ``align`` first asks for
  it: one bool and one value per bucket from the series' first point to
  its last, so it follows the span of the points, not their count. A
  series must therefore not be mutated after its first ``align``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from functools import cached_property
from typing import NamedTuple

from ._lazy import np
from .errors import (
    DuplicateTimestamp,
    EmptyAlignment,
    EmptyInput,
    FrequencyMismatch,
    HorizonMismatch,
    InsufficientSubBars,
    InvalidConfig,
    MixedAssets,
)
from .ingest import Asset, BarSeries, FlowSeries, _seconds, format_timestamp

HOUR = timedelta(hours=1)
USD_PER_MUSD = 1e6
# Sub-returns per block of ``realized_vol`` windows: 512 KB of float64.
_VOL_BLOCK_RETURNS = 1 << 16


class _BucketGrid(NamedTuple):
    """A horizon series scattered over its buckets ``timestamp // horizon``."""

    first: int  # bucket of the series' first point
    present: np.ndarray  # read-only bool per bucket, first .. last point
    values: np.ndarray  # read-only value per bucket, 0 where absent


@dataclass
class _HorizonSeries:
    asset: Asset | None
    horizon: timedelta
    timestamps: np.ndarray  # int64 epoch seconds, multiples of horizon
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    @cached_property
    def grid(self) -> _BucketGrid:
        """The series on its bucket grid, built on first use and kept: one bool
        and one value per bucket from the first point to the last, however few
        points lie between. A timestamp off the horizon grid raises
        HorizonMismatch on every use."""
        h_s = _seconds(self.horizon, "horizon")
        if (self.timestamps % h_s).any():
            raise HorizonMismatch(f"series has timestamps off the {self.horizon} grid")
        at = self.timestamps // h_s
        first = int(at[0]) if len(at) else 0
        at -= first
        span = int(at[-1]) + 1 if len(at) else 0
        present, values = np.zeros(span, dtype=bool), np.zeros(span, self.values.dtype)
        present[at], values[at] = True, self.values
        present.flags.writeable = values.flags.writeable = False
        return _BucketGrid(first, present, values)


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

    A bucket is emitted only when every constituent hour is present. The
    hours must ascend: a repeated hour raises DuplicateTimestamp and one out
    of order InvalidConfig.
    """
    if len(flows) == 0:
        raise EmptyInput("no flow records")
    if not (flows.assets == flows.assets[0]).all():
        raise MixedAssets(f"expected one asset, got {[a.value for a in flows.asset_set()]}")
    ts = flows.timestamps
    back = np.flatnonzero(ts[1:] <= ts[:-1])
    if len(back):
        prev, at = ts[back[0]], ts[back[0] + 1]
        if at == prev:
            raise DuplicateTimestamp(f"duplicate flow hour {format_timestamp(at)}")
        raise InvalidConfig(f"flow hours must ascend: {format_timestamp(at)} follows "
                            f"{format_timestamp(prev)}")
    h_s = _seconds(horizon, "horizon")
    if h_s % 3600 != 0:
        raise FrequencyMismatch(f"horizon {horizon} is not a whole number of hours")
    hours_per_bucket = h_s // 3600

    net = flows.net_usd
    # Neighbouring hours share a bucket only because the hours ascend.
    buckets = ts // h_s
    start = np.flatnonzero(np.concatenate(([True], buckets[1:] != buckets[:-1])))
    full = np.diff(start, append=len(buckets)) == hours_per_bucket
    if not full.any():
        # Skip the per-hour gather and sum, which would span the horizon's
        # hours, not the rows: a full bucket needs one row per hour.
        return NetInflowSeries(asset=Asset(flows.assets[0]), horizon=horizon,
                               timestamps=np.empty(0, np.int64), values=np.empty(0))
    # Sum each full bucket strictly left to right (hours are contiguous in the
    # sorted array), so results match an element-by-element oracle exactly.
    idx = start[full][:, None] + np.arange(hours_per_bucket)
    vals = net[idx]
    sums = vals[:, 0].copy()
    for j in range(1, hours_per_bucket):
        sums += vals[:, j]
    return NetInflowSeries(asset=Asset(flows.assets[0]), horizon=horizon,
                           timestamps=buckets[start[full]] * h_s,
                           values=sums / USD_PER_MUSD)


def _windows(bars: BarSeries, horizon: timedelta,
             name: str = "bar frequency") -> tuple[np.ndarray, np.ndarray, int]:
    """Each epoch-aligned window ``t`` whose nsub+1 bars, from ``t - f`` to
    ``t + h - f``, are one run; the row of its bar at ``t - f``; and nsub.

    Inside a run the first window opens at the first row stamped ``t - f``
    and another every nsub rows while the window's last bar is in the run.
    """
    f_s = _seconds(bars.frequency, "bar frequency")
    h_s = _seconds(horizon, "horizon")
    if h_s % f_s != 0:
        raise FrequencyMismatch(f"{name} {bars.frequency} does not divide {horizon}")
    nsub = h_s // f_s
    starts, ends = bars.runs
    lag = -(bars.timestamps[starts] + f_s) % h_s  # from each run's start to its first t - f
    first = starts + lag // f_s
    count = np.where(lag % f_s == 0, np.maximum((ends - 1 - first) // nsub, 0), 0)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    rows = np.repeat(first, count) + k * nsub
    return bars.timestamps[rows] + f_s, rows, nsub


def returns(bars: BarSeries, horizon: timedelta) -> ReturnSeries:
    """Forward simple returns close(t+h)/close(t) - 1 on the horizon grid."""
    t, rows, nsub = _windows(bars, horizon)
    return ReturnSeries(bars.asset, horizon, t, bars.close[rows + nsub] / bars.close[rows] - 1.0)


def realized_vol(bars: BarSeries, horizon: timedelta) -> VolSeries:
    """Sample std of sub-bar simple returns within each horizon window.

    The bars themselves are the sub-bars: ``bars.frequency`` must divide
    the horizon with at least two bars per window. The sub-returns are
    taken from ``close`` a block of windows at a time, about
    ``_VOL_BLOCK_RETURNS`` of them, so no temporary spans every bar. A
    window is one contiguous row of its block, so ``np.std`` sums it in the
    same order whatever the block size, and the bits do not depend on it.
    """
    t, rows, nsub = _windows(bars, horizon, "sub_frequency")
    if nsub < 2:
        raise InsufficientSubBars(
            f"{horizon} window holds {nsub} sub-bar(s); need at least 2")
    vols, close = np.empty(len(t)), bars.close
    step = max(_VOL_BLOCK_RETURNS // nsub, 1)
    for lo in range(0, len(rows), step):
        # The window opening at row r holds the returns into rows r+1 .. r+nsub.
        block = rows[lo:lo + step]
        if block[-1] - block[0] == (len(block) - 1) * nsub:
            # Back-to-back windows, as on gapless bars: one slice of closes,
            # without the gather below, which cost 5% of the planted rate.
            c = close[block[0]:block[0] + len(block) * nsub + 1]
            sub = (c[1:] / c[:-1] - 1.0).reshape(len(block), nsub)
        else:
            c = np.lib.stride_tricks.sliding_window_view(close, nsub + 1)[block]
            sub = c[:, 1:] / c[:, :-1] - 1.0
        vols[lo:lo + step] = np.std(sub, axis=1, ddof=1)
    return VolSeries(bars.asset, horizon, t, vols)


def align(predictor: NetInflowSeries, response: ReturnSeries | VolSeries,
          control: _HorizonSeries | None = None) -> AlignedSample:
    """Pair predictor(t) (and control(t)) with response(t + horizon), at the
    predictor's horizon, which the other series must share.

    Only timestamps where all requested points exist survive; the response
    therefore never precedes its predictor. Series pair by bucket index
    ``timestamp // horizon``; a timestamp off that grid raises HorizonMismatch.

    Each series' ``grid`` (one bool and one value per bucket from its first
    point to its last) is built on its first ``align`` and kept, so later
    calls only slice the grids over their overlap, AND the masks and gather.
    A series must not be mutated after its first ``align``.
    """
    horizon = predictor.horizon
    pieces = [predictor, response] + ([control] if control is not None else [])
    for s in pieces:
        if s.horizon != horizon:
            raise HorizonMismatch(f"series at {s.horizon}, expected {horizon}")
    h_s = _seconds(horizon, "horizon")
    grids = [s.grid for s in pieces]
    if not all(len(s) for s in pieces):
        raise EmptyAlignment("no overlapping predictor/response timestamps")
    firsts = [g.first for g in grids]
    firsts[1] -= 1  # response(t + horizon) pairs with predictor(t)

    # Slice each grid to the buckets they share; keep those present in all.
    lo = max(firsts)
    span = max(min(f + len(g.present) for f, g in zip(firsts, grids)) - lo, 0)
    masks = [g.present[lo - f:lo - f + span] for f, g in zip(firsts, grids)]
    present = masks[0] & masks[1]
    if control is not None:
        present &= masks[2]
    rows = np.flatnonzero(present)
    if len(rows) == 0:
        raise EmptyAlignment("no overlapping predictor/response timestamps")
    pred, resp, *ctrl = [g.values[lo - f:][rows] for f, g in zip(firsts, grids)]
    return AlignedSample(timestamps=(rows + lo) * h_s, predictor=pred, response=resp,
                         control=ctrl[0] if ctrl else None, horizon=horizon)
