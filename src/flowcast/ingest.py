"""CSV ingestion: exchange flows, price bars, and call-option quotes.

All three readers validate against a fixed header, reject malformed rows
with a line number, and return columnar, immutable, canonically sorted
containers. Timestamps are ISO-8601 UTC only. Matching writers emit the
canonical text form, so ``write(parse(f))`` is a fixed point for
well-formed files.

Schemas (RFC 4180, UTF-8, header required):

    flows.csv    timestamp,asset,inflow_usd,outflow_usd
    bars.csv     timestamp,open,high,low,close
    options.csv  quote_time,strike,expiry,option_price,index_price,implied_vol,delta
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DeltaOutOfRange,
    DuplicateTimestamp,
    ExpiredAtQuote,
    FrequencyMismatch,
    MalformedRow,
    NegativeFlow,
    NonPositivePrice,
)

FLOWS_HEADER = ["timestamp", "asset", "inflow_usd", "outflow_usd"]
BARS_HEADER = ["timestamp", "open", "high", "low", "close"]
OPTIONS_HEADER = [
    "quote_time", "strike", "expiry", "option_price",
    "index_price", "implied_vol", "delta",
]

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


class Asset(str, enum.Enum):
    BTC = "BTC"
    ETH = "ETH"
    USDT = "USDT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 UTC instant to epoch seconds. Raises ValueError."""
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC designator")
    if dt.utcoffset() != timedelta(0):
        raise ValueError(f"timestamp {text!r} is not UTC")
    if dt.microsecond:
        raise ValueError(f"timestamp {text!r} has fractional seconds")
    return int(dt.timestamp())


def format_timestamp(epoch: int | float) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(_TS_FORMAT)


def to_datetime(epoch: int | float) -> datetime:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc)


def format_number(x: float) -> str:
    """Canonical decimal text for a float (shortest round-trip form)."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Record types (scalar views) and their columnar containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowRecord:
    """One asset's exchange inflow/outflow observation for one hour, in USD."""

    timestamp: datetime
    asset: Asset
    inflow_usd: float
    outflow_usd: float

    @property
    def net_usd(self) -> float:
        return self.inflow_usd - self.outflow_usd


@dataclass(frozen=True)
class Bar:
    """OHLC price bar; ``timestamp`` is the bar open, prices in USD."""

    timestamp: datetime
    open: float
    high: float
    low: float
    close: float
    frequency: timedelta


@dataclass(frozen=True)
class OptionQuote:
    """A call-option quote; ``option_price`` is in units of the underlying."""

    quote_time: datetime
    strike: float
    expiry: datetime
    option_price: float
    index_price: float
    implied_vol: float
    delta: float

    @property
    def instrument(self) -> tuple[float, datetime]:
        return (self.strike, self.expiry)


class FlowSeries(Sequence[FlowRecord]):
    """Flow records sorted by (asset, timestamp), stored column-wise."""

    def __init__(self, timestamps: np.ndarray, assets: np.ndarray,
                 inflow_usd: np.ndarray, outflow_usd: np.ndarray):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.assets = np.asarray(assets, dtype="U4")
        self.inflow_usd = np.asarray(inflow_usd, dtype=np.float64)
        self.outflow_usd = np.asarray(outflow_usd, dtype=np.float64)
        for a in (self.assets, self.inflow_usd, self.outflow_usd):
            if len(a) != len(self.timestamps):
                raise ValueError("column length mismatch")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FlowSeries(self.timestamps[i], self.assets[i],
                              self.inflow_usd[i], self.outflow_usd[i])
        return FlowRecord(to_datetime(self.timestamps[i]), Asset(self.assets[i]),
                          float(self.inflow_usd[i]), float(self.outflow_usd[i]))

    def __iter__(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self[i]

    @property
    def net_usd(self) -> np.ndarray:
        return self.inflow_usd - self.outflow_usd

    def asset_set(self) -> list[Asset]:
        return [Asset(a) for a in np.unique(self.assets)]

    def select(self, asset: Asset | str) -> "FlowSeries":
        mask = self.assets == str(Asset(asset).value)
        return FlowSeries(self.timestamps[mask], self.assets[mask],
                          self.inflow_usd[mask], self.outflow_usd[mask])


class BarSeries(Sequence[Bar]):
    """Bars at one fixed frequency, sorted by timestamp.

    ``asset`` is an optional label carried for bookkeeping; the CSV schema
    itself is single-asset.
    """

    def __init__(self, timestamps: np.ndarray, open_: np.ndarray, high: np.ndarray,
                 low: np.ndarray, close: np.ndarray, frequency: timedelta,
                 asset: Asset | None = None):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.open = np.asarray(open_, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)
        self.low = np.asarray(low, dtype=np.float64)
        self.close = np.asarray(close, dtype=np.float64)
        self.frequency = frequency
        self.asset = asset

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BarSeries(self.timestamps[i], self.open[i], self.high[i],
                             self.low[i], self.close[i], self.frequency, self.asset)
        return Bar(to_datetime(self.timestamps[i]), float(self.open[i]),
                   float(self.high[i]), float(self.low[i]), float(self.close[i]),
                   self.frequency)

    def __iter__(self) -> Iterator[Bar]:
        for i in range(len(self)):
            yield self[i]


class QuoteSeries(Sequence[OptionQuote]):
    """Option quotes sorted by quote_time, then (strike, expiry)."""

    def __init__(self, quote_times: np.ndarray, strikes: np.ndarray,
                 expiries: np.ndarray, option_prices: np.ndarray,
                 index_prices: np.ndarray, implied_vols: np.ndarray,
                 deltas: np.ndarray):
        self.quote_times = np.asarray(quote_times, dtype=np.int64)
        self.strikes = np.asarray(strikes, dtype=np.float64)
        self.expiries = np.asarray(expiries, dtype=np.int64)
        self.option_prices = np.asarray(option_prices, dtype=np.float64)
        self.index_prices = np.asarray(index_prices, dtype=np.float64)
        self.implied_vols = np.asarray(implied_vols, dtype=np.float64)
        self.deltas = np.asarray(deltas, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.quote_times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return QuoteSeries(self.quote_times[i], self.strikes[i], self.expiries[i],
                               self.option_prices[i], self.index_prices[i],
                               self.implied_vols[i], self.deltas[i])
        return OptionQuote(to_datetime(self.quote_times[i]), float(self.strikes[i]),
                           to_datetime(self.expiries[i]), float(self.option_prices[i]),
                           float(self.index_prices[i]), float(self.implied_vols[i]),
                           float(self.deltas[i]))

    def __iter__(self) -> Iterator[OptionQuote]:
        for i in range(len(self)):
            yield self[i]


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------

def _read_rows(path: str | Path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, f"missing header; expected {','.join(expected_header)}")
        if [h.strip() for h in header] != expected_header:
            raise MalformedRow(1, f"bad header {header!r}; expected {','.join(expected_header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows.append((lineno, row))
    return rows


def _field_count(lineno: int, row: list[str], n: int) -> None:
    if len(row) != n:
        raise MalformedRow(lineno, f"expected {n} fields, got {len(row)}")


def _parse_float(lineno: int, text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(lineno, f"bad {name} {text!r}")
    if not np.isfinite(value):
        raise MalformedRow(lineno, f"non-finite {name} {text!r}")
    return value


def _parse_ts(lineno: int, text: str, name: str) -> int:
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise MalformedRow(lineno, f"bad {name}: {exc}")


def parse_flows(path: str | Path) -> FlowSeries:
    """Parse flows.csv into a FlowSeries sorted by (asset, timestamp).

    Rejects negative flows, non-hour-aligned timestamps, and duplicate
    (asset, timestamp) pairs. Input row order is irrelevant.
    """
    rows = _read_rows(path, FLOWS_HEADER)
    ts = np.empty(len(rows), dtype=np.int64)
    assets = np.empty(len(rows), dtype="U4")
    inflow = np.empty(len(rows), dtype=np.float64)
    outflow = np.empty(len(rows), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        _field_count(lineno, row, 4)
        t = _parse_ts(lineno, row[0], "timestamp")
        if t % 3600 != 0:
            raise MalformedRow(lineno, f"timestamp {row[0]!r} is not hour-aligned")
        try:
            asset = Asset(row[1].strip())
        except ValueError:
            raise MalformedRow(lineno, f"unknown asset {row[1]!r}")
        fin = _parse_float(lineno, row[2], "inflow_usd")
        fout = _parse_float(lineno, row[3], "outflow_usd")
        if fin < 0 or fout < 0:
            raise NegativeFlow(f"line {lineno}: negative flow ({row[2]}, {row[3]})")
        ts[i], assets[i], inflow[i], outflow[i] = t, asset.value, fin, fout
    order = np.lexsort((ts, assets))
    ts, assets, inflow, outflow = ts[order], assets[order], inflow[order], outflow[order]
    dup = (assets[1:] == assets[:-1]) & (ts[1:] == ts[:-1])
    if dup.any():
        i = int(np.flatnonzero(dup)[0])
        raise DuplicateTimestamp(
            f"duplicate ({assets[i + 1]}, {format_timestamp(ts[i + 1])})")
    return FlowSeries(ts, assets, inflow, outflow)


def parse_bars(path: str | Path, frequency: timedelta,
               asset: Asset | None = None) -> tuple[BarSeries, list[datetime]]:
    """Parse bars.csv at a declared frequency.

    Returns the sorted bars together with the list of missing grid
    timestamps (gaps). Gaps are never filled.
    """
    freq_s = int(frequency.total_seconds())
    if freq_s <= 0:
        raise FrequencyMismatch(f"non-positive frequency {frequency}")
    rows = _read_rows(path, BARS_HEADER)
    ts = np.empty(len(rows), dtype=np.int64)
    cols = np.empty((len(rows), 4), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        _field_count(lineno, row, 5)
        ts[i] = _parse_ts(lineno, row[0], "timestamp")
        for j, name in enumerate(("open", "high", "low", "close")):
            cols[i, j] = _parse_float(lineno, row[j + 1], name)
        o, h, l, c = cols[i]
        if min(o, h, l, c) <= 0:
            raise NonPositivePrice(f"line {lineno}: non-positive price")
        if l > min(o, c) or h < max(o, c):
            raise MalformedRow(lineno, f"OHLC out of order ({o}, {h}, {l}, {c})")
    order = np.argsort(ts, kind="stable")
    ts, cols = ts[order], cols[order]
    if len(ts) > 1 and (np.diff(ts) == 0).any():
        i = int(np.flatnonzero(np.diff(ts) == 0)[0])
        raise FrequencyMismatch(f"duplicate bar timestamp {format_timestamp(ts[i])}")
    gaps: list[datetime] = []
    if len(ts) > 0:
        offsets = ts - ts[0]
        bad = offsets % freq_s != 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise FrequencyMismatch(
                f"timestamp {format_timestamp(ts[i])} off the {frequency} grid")
        grid = np.arange(ts[0], ts[-1] + freq_s, freq_s, dtype=np.int64)
        missing = np.setdiff1d(grid, ts, assume_unique=True)
        gaps = [to_datetime(t) for t in missing]
    series = BarSeries(ts, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3],
                       frequency, asset=asset)
    return series, gaps


def parse_option_quotes(path: str | Path) -> QuoteSeries:
    """Parse options.csv; instrument identity is (strike, expiry)."""
    rows = _read_rows(path, OPTIONS_HEADER)
    qt = np.empty(len(rows), dtype=np.int64)
    expiry = np.empty(len(rows), dtype=np.int64)
    vals = np.empty((len(rows), 5), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        _field_count(lineno, row, 7)
        qt[i] = _parse_ts(lineno, row[0], "quote_time")
        expiry[i] = _parse_ts(lineno, row[2], "expiry")
        for j, name in enumerate(("strike", "option_price", "index_price",
                                  "implied_vol", "delta")):
            src = row[1] if j == 0 else row[j + 2]
            vals[i, j] = _parse_float(lineno, src, name)
        strike, option_price, index_price, implied_vol, delta = vals[i]
        if strike <= 0 or index_price <= 0:
            raise MalformedRow(lineno, "strike and index_price must be positive")
        if option_price < 0 or implied_vol < 0:
            raise MalformedRow(lineno, "option_price and implied_vol must be >= 0")
        if expiry[i] <= qt[i]:
            raise ExpiredAtQuote(
                f"line {lineno}: expiry {row[2]} at/before quote_time {row[0]}")
        if not (0.0 <= delta <= 1.0):
            raise DeltaOutOfRange(f"line {lineno}: call delta {delta} outside [0, 1]")
    order = np.lexsort((expiry, vals[:, 0], qt))
    return QuoteSeries(qt[order], vals[order, 0], expiry[order], vals[order, 1],
                       vals[order, 2], vals[order, 3], vals[order, 4])


# ---------------------------------------------------------------------------
# Canonical writers
# ---------------------------------------------------------------------------

def flows_to_csv(flows: FlowSeries) -> str:
    buf = io.StringIO()
    buf.write(",".join(FLOWS_HEADER) + "\n")
    for i in range(len(flows)):
        buf.write(f"{format_timestamp(flows.timestamps[i])},{flows.assets[i]},"
                  f"{format_number(flows.inflow_usd[i])},"
                  f"{format_number(flows.outflow_usd[i])}\n")
    return buf.getvalue()


def bars_to_csv(bars: BarSeries) -> str:
    buf = io.StringIO()
    buf.write(",".join(BARS_HEADER) + "\n")
    for i in range(len(bars)):
        buf.write(f"{format_timestamp(bars.timestamps[i])},"
                  f"{format_number(bars.open[i])},{format_number(bars.high[i])},"
                  f"{format_number(bars.low[i])},{format_number(bars.close[i])}\n")
    return buf.getvalue()


def quotes_to_csv(quotes: QuoteSeries) -> str:
    buf = io.StringIO()
    buf.write(",".join(OPTIONS_HEADER) + "\n")
    for i in range(len(quotes)):
        buf.write(f"{format_timestamp(quotes.quote_times[i])},"
                  f"{format_number(quotes.strikes[i])},"
                  f"{format_timestamp(quotes.expiries[i])},"
                  f"{format_number(quotes.option_prices[i])},"
                  f"{format_number(quotes.index_prices[i])},"
                  f"{format_number(quotes.implied_vols[i])},"
                  f"{format_number(quotes.deltas[i])}\n")
    return buf.getvalue()
