"""CSV ingestion: exchange flows, price bars, and call-option quotes.

One table codec reads and writes every file (RFC 4180, UTF-8, header
required). A schema (``FLOWS``, ``BARS``, ``OPTIONS``) gives each file's
columns with their kinds, its row checks and the key no two rows may share.
The reader takes a canonical file whole with numpy's C reader and any
other file one record at a time, reports the first faulty line's first
fault with its line number, and returns the columns stably sorted by the key.
Timestamps are ISO-8601 UTC only. The writer emits the canonical text, so
``write(parse(f))`` is a fixed point for well-formed files: comma-joined
lines ending in ``\\n``, timestamps as ``YYYY-MM-DDTHH:MM:SSZ`` (four-digit
year), floats as their shortest round-trip ``repr``, assets and integers as they are.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from ._lazy import np
from .errors import (DeltaOutOfRange, DuplicateTimestamp, ExpiredAtQuote, FrequencyMismatch,
                     MalformedRow, NegativeFlow, NonPositivePrice, ValidationError)


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
    return _timestamp_text(np.array([int(epoch)], dtype=np.int64))[0]


def to_datetime(epoch: int | float) -> datetime:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc)


def _seconds(duration: timedelta, name: str, *, allow_zero: bool = False,
             error: type[ValidationError] = FrequencyMismatch) -> int:
    """``duration`` in whole seconds, by exact ``timedelta`` arithmetic (a
    float count of seconds drops the microseconds of a duration of some
    centuries): the one place a duration becomes seconds. Raises ``error``,
    naming ``name``, for a negative duration, a zero one unless
    ``allow_zero``, and one with a fraction of a second, which is refused,
    never truncated."""
    seconds, rest = divmod(duration, timedelta(seconds=1))
    if rest or seconds < (0 if allow_zero else 1):
        kind = "non-negative" if allow_zero else "positive"
        raise error(f"{name} must be a {kind} whole-second duration, got {duration}")
    return seconds


def format_number(x: float) -> str:
    """Canonical decimal text for a float (shortest round-trip form)."""
    return repr(float(x))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, NaN once, as ``np.unique``
    gives them, but without its ``np.ma.is_masked`` call, which imports
    ``numpy.ma``."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    # NaNs sort last, so an element after a NaN is a NaN.
    keep[1:] = (ordered[1:] != ordered[:-1]) & (ordered[:-1] == ordered[:-1])
    return ordered[keep]


def _check_lengths(series, *names: str) -> None:
    """Refuse, with ValidationError, a series whose columns ``names`` differ
    in length, naming its shortest column and its longest."""
    lengths = {name: len(getattr(series, name)) for name in names}
    short, long = min(lengths, key=lengths.get), max(lengths, key=lengths.get)
    if lengths[short] != lengths[long]:
        raise ValidationError(f"{type(series).__name__}: column {short} has "
                              f"{lengths[short]} rows, {long} has {lengths[long]}")


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


class FlowSeries:
    """Flow records sorted by (asset, timestamp), stored column-wise."""

    def __init__(self, timestamps: np.ndarray, assets: np.ndarray,
                 inflow_usd: np.ndarray, outflow_usd: np.ndarray):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.assets = np.asarray(assets, dtype="U4")
        self.inflow_usd = np.asarray(inflow_usd, dtype=np.float64)
        self.outflow_usd = np.asarray(outflow_usd, dtype=np.float64)
        _check_lengths(self, "timestamps", "assets", "inflow_usd", "outflow_usd")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def net_usd(self) -> np.ndarray:
        return self.inflow_usd - self.outflow_usd

    def asset_set(self) -> list[Asset]:
        return [Asset(a) for a in _distinct(self.assets)]

    def select(self, asset: Asset | str) -> "FlowSeries":
        mask = self.assets == str(Asset(asset).value)
        return FlowSeries(self.timestamps[mask], self.assets[mask],
                          self.inflow_usd[mask], self.outflow_usd[mask])


class BarSeries:
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
        _check_lengths(self, "timestamps", "open", "high", "low", "close")
        self.frequency = frequency
        self.asset = asset

    def __len__(self) -> int:
        return len(self.timestamps)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """First and one-past-last row of each run of bars one ``frequency`` apart."""
        f_s, ts = _seconds(self.frequency, "bar frequency"), self.timestamps
        # One difference per bar is the only temporary the size of the bars.
        cuts = np.flatnonzero(np.diff(ts) != f_s) + 1
        if not len(ts):
            return cuts, cuts
        bounds = np.concatenate(([0], cuts, [len(ts)]))
        return bounds[:-1], bounds[1:]


class QuoteSeries:
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
        _check_lengths(self, "quote_times", "strikes", "expiries", "option_prices",
                       "index_prices", "implied_vols", "deltas")

    def __len__(self) -> int:
        return len(self.quote_times)

    def instruments(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, ids): the stable sort by (strike, expiry), which keeps each
        instrument's quotes in time order, and each sorted quote's instrument, from 0."""
        order = np.lexsort((self.expiries, self.strikes))
        strikes, expiries = self.strikes[order], self.expiries[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (strikes[1:] != strikes[:-1]) | (expiries[1:] != expiries[:-1])
        return order, np.cumsum(new) - 1


class Kind(NamedTuple):
    """A column type: ``parse(field, name)`` converts one field or raises
    ValueError; ``take`` turns the column ``np.loadtxt`` read as the dtype
    ``text`` into its values and a mask of the fields it took."""

    parse: Callable[[str, str], object] | None
    dtype: str
    format: Callable[[np.ndarray], list[str]]
    text: str | None = None
    take: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


def _parse_ts(text: str, name: str) -> int:
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise ValueError(f"bad {name}: {exc}") from None


def _parse_hour(text: str, name: str) -> int:
    t = _parse_ts(text, name)
    if t % 3600 != 0:
        raise ValueError(f"{name} {text!r} is not hour-aligned")
    return t


def _parse_number(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} {text!r}")
    return value


def _parse_asset(text: str, name: str) -> str:
    try:
        return Asset(text.strip()).value
    except ValueError:
        raise ValueError(f"unknown {name} {text!r}") from None


_CANONICAL = b"0000-00-00T00:00:00Z\0"  # each 0 stands for a digit


def _take_timestamps(text: np.ndarray, step: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Takes the ``S21`` texts spelt YYYY-MM-DDTHH:MM:SSZ, not in year 0000
    (which ``parse`` rejects) and with a NUL 21st byte (a cast to ``S21``
    truncates a longer text), whose epoch is a multiple of ``step``."""
    canonical = np.frombuffer(_CANONICAL, np.uint8)
    b = np.ascontiguousarray(text).view(np.uint8).reshape(len(text), 21)
    took = (b[:, :4] != 48).any(1) & np.where(canonical == 48, (b >= 48) & (b <= 57),
                                              b == canonical).all(1)
    values = np.where(took, text.astype("S19"), b"1970-01-01T00:00:00").astype(
        "datetime64[s]").astype(np.int64)  # raises on a date such as 2021-02-29
    return values, took & (values % step == 0)


def _finite(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.isfinite(values)


def _timestamp_text(col: np.ndarray) -> list[str]:
    return np.datetime_as_string(col.astype("datetime64[s]"), unit="s",
                                 timezone="UTC").tolist()


_ASSETS = frozenset(a.value for a in Asset)
_PLAIN = b"0123456789.,:+-eETZ\n" + "".join(_ASSETS).encode()  # the bytes of canonical rows


def _take_assets(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takes the ``S5`` texts that name an asset (a cast to ``S5`` truncates
    a longer text to no asset)."""
    return col.astype("U4"), np.isin(col, np.array(sorted(_ASSETS), "S5"))


TIMESTAMP = Kind(_parse_ts, "int64", _timestamp_text, "S21", _take_timestamps)
HOUR = Kind(_parse_hour, "int64", _timestamp_text, "S21", lambda col: _take_timestamps(col, 3600))
NUMBER = Kind(_parse_number, "float64", lambda col: list(map(repr, col.tolist())), "f8", _finite)
ASSET = Kind(_parse_asset, "U4", lambda col: col.tolist(), "S5", _take_assets)
INTEGER = Kind(None, "int64", lambda col: list(map(str, col.tolist())))  # written only


class Schema(NamedTuple):
    """An input file's columns, its row checks as ``(bad(values), error,
    message(fields, values))`` triples, where ``bad`` takes the columns or one
    row's values and a faulty record raises ``error(lineno, message)``, a
    ``MalformedRow``; its ``key`` column indices (most significant first) and
    the ``duplicate`` error for a repeated key."""

    columns: tuple[tuple[str, Kind], ...]
    checks: tuple[tuple[Callable[[list], object], type[MalformedRow],
                        Callable[[Sequence[str], list], str]], ...]
    key: tuple[int, ...]
    duplicate: Callable[[str], Exception]


FLOWS = Schema(
    columns=(("timestamp", HOUR), ("asset", ASSET),
             ("inflow_usd", NUMBER), ("outflow_usd", NUMBER)),
    checks=((lambda v: (v[2] < 0) | (v[3] < 0),
             NegativeFlow, lambda f, v: f"negative flow ({f[2]}, {f[3]})"),),
    key=(1, 0), duplicate=lambda key: DuplicateTimestamp(f"duplicate ({key})"))
BARS = Schema(
    columns=(("timestamp", TIMESTAMP), ("open", NUMBER), ("high", NUMBER),
             ("low", NUMBER), ("close", NUMBER)),
    checks=((lambda v: (v[1] <= 0) | (v[2] <= 0) | (v[3] <= 0) | (v[4] <= 0),
             NonPositivePrice, lambda f, v: "non-positive price"),
            (lambda v: (v[3] > v[1]) | (v[3] > v[4]) | (v[2] < v[1]) | (v[2] < v[4]),
             MalformedRow, lambda f, v: f"OHLC out of order ({', '.join(map(str, v[1:]))})")),
    key=(0,), duplicate=lambda key: FrequencyMismatch(f"duplicate bar timestamp {key}"))
OPTIONS = Schema(
    columns=(("quote_time", TIMESTAMP), ("strike", NUMBER), ("expiry", TIMESTAMP),
             ("option_price", NUMBER), ("index_price", NUMBER),
             ("implied_vol", NUMBER), ("delta", NUMBER)),
    checks=((lambda v: (v[1] <= 0) | (v[4] <= 0),
             MalformedRow, lambda f, v: "strike and index_price must be positive"),
            (lambda v: (v[3] < 0) | (v[5] < 0),
             MalformedRow, lambda f, v: "option_price and implied_vol must be >= 0"),
            (lambda v: v[2] <= v[0],
             ExpiredAtQuote, lambda f, v: f"expiry {f[2]} at/before quote_time {f[0]}"),
            (lambda v: (v[6] < 0) | (v[6] > 1),
             DeltaOutOfRange, lambda f, v: f"call delta {v[6]} outside [0, 1]")),
    key=(0, 1, 2), duplicate=lambda key: DuplicateTimestamp(f"duplicate quote ({key})"))


def check_row(schema: Schema, lineno: int, fields: Sequence[str]) -> list:
    """One record's values by the scalar converters and checks; raises its
    first fault in column order, then in check order."""
    try:
        values = [kind.parse(text, name) for (name, kind), text in zip(schema.columns, fields)]
    except ValueError as exc:
        raise MalformedRow(lineno, str(exc)) from None
    for bad, error, message in schema.checks:
        if bad(values):
            raise error(lineno, message(fields, values))
    return values


def read_table(path: str | Path, schema: Schema) -> list[np.ndarray]:
    """Parse and check one CSV file; its columns, stably sorted by the key.

    A file ``_load_canonical`` takes is read whole by numpy's C reader; any
    other by ``csv`` one record at a time, which raises the first faulty
    record's error. A bad field count, a ``csv.Error`` or a byte that is not
    UTF-8 is reported only if no earlier record is faulty."""
    data = Path(path).read_bytes()
    columns = _load_canonical(data, schema)
    if columns is None:
        columns = _read_records(data, path, schema)
    order = np.lexsort([columns[j] for j in reversed(schema.key)])
    columns = [col[order] for col in columns]
    repeated = np.logical_and.reduce([columns[j][1:] == columns[j][:-1] for j in schema.key])
    if repeated.any():
        i = int(np.flatnonzero(repeated)[0])
        raise schema.duplicate(", ".join(schema.columns[j][1].format(columns[j][i:i + 1])[0]
                                         for j in schema.key))
    return columns


def _load_canonical(data: bytes, schema: Schema) -> list[np.ndarray] | None:
    """The unsorted columns of a canonical file whose fields convert and rows
    pass their checks, or None. Canonical: the exact header line, then rows of
    ``_PLAIN`` bytes ending in ``\\n``, none over the field limit, once the
    spellings below are rewritten and blank lines dropped."""
    head = ",".join(name for name, _ in schema.columns).encode() + b"\n"
    if b"\r" in data:  # a lone CR stays and declines the file
        data = data.replace(b"\r\n", b"\n")
    body = data[len(head):]
    if b"+" in body:  # a one-byte test is a memchr: canonical files pay no search
        body = body.replace(b"+00:00", b"Z")  # converts only if it was ...:SS+00:00
    if b" " in body:  # str(datetime), which csv.writer writes, puts a space for T
        for hour in (b"0", b"1", b"2"):  # no asset or number converts with a T before a digit
            body = body.replace(b" " + hour, b"T" + hour)
    if not data.startswith(head) or not body.endswith(b"\n") or body.translate(None, _PLAIN):
        return None
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == 10)
    widths = np.diff(ends, prepend=-1)  # each line's length with its newline
    if widths.max() < 2 or widths.max() > csv.field_size_limit() + 1:
        return None  # no row (loadtxt warns on it), or a line over the limit
    if widths.min() < 2:  # line numbers matter only in an error, which csv reports
        body = np.delete(np.frombuffer(body, np.uint8), ends[widths < 2]).tobytes()
    dtype = [(name, kind.text) for name, kind in schema.columns]
    for rows in (1, None):  # the first row alone declines a file in other spellings early
        try:  # loadtxt reads a number with PyOS_string_to_double, as float() does
            table = np.loadtxt(io.BytesIO(body), dtype, delimiter=",", comments=None,
                               quotechar=None, ndmin=1, encoding="ascii", max_rows=rows)
            converted = [kind.take(table[name]) for name, kind in schema.columns]
        except ValueError:  # a field that is not a number, a wrong field count, a bad date
            return None
        columns = [values for values, _ in converted]
        if np.logical_or.reduce([~took for _, took in converted]
                                + [bad(columns) for bad, _, _ in schema.checks]).any():
            return None
    return columns


def _read_records(data: bytes, path: str | Path, schema: Schema) -> list[np.ndarray]:
    """The unsorted columns of ``data`` read by ``csv`` one record at a time;
    raises its first fault. Blank records are skipped but counted as lines."""
    header = [name for name, _ in schema.columns]
    rows = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise MalformedRow(1, f"missing header; expected {','.join(header)}")
            if [h.strip() for h in first] != header:
                raise MalformedRow(1, f"bad header {first!r}; expected {','.join(header)}")
            for lineno, fields in enumerate(reader, start=2):
                if not fields or (len(fields) == 1 and not fields[0].strip()):
                    continue
                if len(fields) != len(header):
                    raise MalformedRow(lineno, f"expected {len(header)} fields, got {len(fields)}")
                rows.append(check_row(schema, lineno, fields))
        except UnicodeDecodeError:  # the decoder reads ahead in blocks: no line number
            raise ValidationError(f"{path}: not valid UTF-8") from None
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
    return [np.array(col, dtype=kind.dtype) for (_, kind), col
            in zip(schema.columns, zip(*rows) if rows else [()] * len(header))]


def write_table(columns: Sequence[tuple[str, Kind]], values: Sequence) -> str:
    """Canonical CSV text of ``values``, one sequence per (name, kind) column."""
    arrays = [np.asarray(col, dtype=kind.dtype) for (_, kind), col in zip(columns, values)]
    text = [",".join(name for name, _ in columns) + "\n"]
    step = 8192  # rows per pass: bounds the field strings alive at once
    for i in range(0, len(arrays[0]), step):
        fields = [kind.format(a[i:i + step]) for (_, kind), a in zip(columns, arrays)]
        text.append("\n".join(map(",".join, zip(*fields))) + "\n")
    return "".join(text)


def parse_flows(path: str | Path) -> FlowSeries:
    """Parse flows.csv into a FlowSeries sorted by (asset, timestamp).

    Rejects negative flows, non-hour-aligned timestamps, and duplicate
    (asset, timestamp) pairs. Input row order is irrelevant.
    """
    return FlowSeries(*read_table(path, FLOWS))


def parse_bars(path: str | Path, frequency: timedelta,
               asset: Asset | None = None) -> tuple[BarSeries, int]:
    """Parse bars.csv at a declared frequency.

    Returns the sorted bars together with the number of bars missing
    between the first and the last (gaps). Gaps are never filled.
    """
    freq_s = _seconds(frequency, "bar frequency")
    ts, open_, high, low, close = read_table(path, BARS)
    off_grid = np.flatnonzero((ts - ts[:1]) % freq_s)
    if len(off_grid):
        raise FrequencyMismatch(
            f"timestamp {format_timestamp(ts[off_grid[0]])} off the {frequency} grid")
    gaps = int(ts[-1] - ts[0]) // freq_s + 1 - len(ts) if len(ts) else 0
    return BarSeries(ts, open_, high, low, close, frequency, asset=asset), gaps


def parse_option_quotes(path: str | Path) -> QuoteSeries:
    """Parse options.csv; instrument identity is (strike, expiry).

    Rejects two quotes of one instrument at one quote_time.
    """
    return QuoteSeries(*read_table(path, OPTIONS))


def flows_to_csv(flows: FlowSeries) -> str:
    return write_table(FLOWS.columns, (flows.timestamps, flows.assets,
                                       flows.inflow_usd, flows.outflow_usd))


def bars_to_csv(bars: BarSeries) -> str:
    return write_table(BARS.columns, (bars.timestamps, bars.open, bars.high,
                                      bars.low, bars.close))


def quotes_to_csv(quotes: QuoteSeries) -> str:
    return write_table(OPTIONS.columns, (quotes.quote_times, quotes.strikes, quotes.expiries,
                                         quotes.option_prices, quotes.index_prices,
                                         quotes.implied_vols, quotes.deltas))
