import csv
import io
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast import errors
from flowcast.cli import main
from flowcast.ingest import (
    ASSET,
    BARS,
    FLOWS,
    HOUR,
    NUMBER,
    OPTIONS,
    TIMESTAMP,
    Asset,
    BarSeries,
    FlowSeries,
    QuoteSeries,
    bars_to_csv,
    flows_to_csv,
    format_timestamp,
    parse_bars,
    parse_flows,
    parse_option_quotes,
    parse_timestamp,
    quotes_to_csv,
    read_table,
    to_datetime,
    write_table,
)
from flowcast.ingest import _load_canonical, _read_records, _seconds
from oracles import reference_read_table

FLOWS_HEADER = "timestamp,asset,inflow_usd,outflow_usd\n"
BARS_HEADER = "timestamp,open,high,low,close\n"
OPTIONS_HEADER = "quote_time,strike,expiry,option_price,index_price,implied_vol,delta\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def test_parse_flows_single_row(tmp_path):
    p = write(tmp_path, "flows.csv",
              FLOWS_HEADER + "2022-05-12T12:00:00Z,ETH,26789010,0\n")
    flows = parse_flows(p)
    assert len(flows) == 1
    assert flows.timestamps.tolist() == [
        int(datetime(2022, 5, 12, 12, tzinfo=timezone.utc).timestamp())]
    assert flows.assets.tolist() == [Asset.ETH.value]
    assert flows.inflow_usd.tolist() == [26789010.0]
    assert flows.outflow_usd.tolist() == [0.0]
    assert flows.net_usd.tolist() == [26789010.0]


def test_parse_flows_empty_file_with_header(tmp_path):
    p = write(tmp_path, "flows.csv", FLOWS_HEADER)
    assert len(parse_flows(p)) == 0


def test_parse_flows_negative_flow(tmp_path):
    p = write(tmp_path, "flows.csv", FLOWS_HEADER + "2022-05-12T12:00:00Z,ETH,-5,0\n")
    with pytest.raises(errors.NegativeFlow):
        parse_flows(p)


def test_parse_flows_duplicate_timestamp(tmp_path):
    rows = ("2022-05-12T12:00:00Z,ETH,1,0\n"
            "2022-05-12T12:00:00Z,ETH,2,0\n")
    p = write(tmp_path, "flows.csv", FLOWS_HEADER + rows)
    with pytest.raises(errors.DuplicateTimestamp):
        parse_flows(p)


def test_parse_flows_same_timestamp_different_assets_ok(tmp_path):
    rows = ("2022-05-12T12:00:00Z,ETH,1,0\n"
            "2022-05-12T12:00:00Z,BTC,2,0\n")
    p = write(tmp_path, "flows.csv", FLOWS_HEADER + rows)
    flows = parse_flows(p)
    assert flows.asset_set() == [Asset.BTC, Asset.ETH]


def test_parse_flows_order_insensitive(tmp_path, rng):
    rows = [f"2022-01-01T{h:02d}:00:00Z,ETH,{100 + h},{h}\n" for h in range(24)]
    rows += [f"2022-01-01T{h:02d}:00:00Z,USDT,{h},{2 * h}\n" for h in range(24)]
    sorted_path = write(tmp_path, "a.csv", FLOWS_HEADER + "".join(rows))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    shuffled_path = write(tmp_path, "b.csv", FLOWS_HEADER + "".join(shuffled))
    assert flows_to_csv(parse_flows(sorted_path)) == flows_to_csv(parse_flows(shuffled_path))


@pytest.mark.parametrize("row", [
    "2022-05-12T12:00:00Z,DOGE,1,0",        # unknown asset
    "2022-05-12T12:30:00Z,ETH,1,0",         # not hour-aligned
    "2022-05-12 12:00,ETH,1,0",             # bad timestamp
    "2022-05-12T12:00:00Z,ETH,abc,0",       # bad number
    "2022-05-12T12:00:00Z,ETH,1",           # missing field
    "2022-05-12T12:00:00.7Z,ETH,1,0",       # fractional seconds
])
def test_parse_flows_malformed_rows_report_line(tmp_path, row):
    p = write(tmp_path, "flows.csv", FLOWS_HEADER + row + "\n")
    with pytest.raises(errors.MalformedRow) as exc:
        parse_flows(p)
    assert exc.value.line == 2


def test_parse_flows_bad_header(tmp_path):
    p = write(tmp_path, "flows.csv", "time,asset,in,out\n")
    with pytest.raises(errors.MalformedRow) as exc:
        parse_flows(p)
    assert exc.value.line == 1


def test_flows_round_trip_is_fixed_point(tmp_path):
    raw = (FLOWS_HEADER
           + "2022-05-12T13:00:00Z,ETH,5.50,0.25\n"
           + "2022-05-12T12:00:00Z,ETH,26789010,0\n"
           + "2022-05-12T12:00:00Z,BTC,1e6,2E6\n")
    canonical = flows_to_csv(parse_flows(write(tmp_path, "a.csv", raw)))
    again = flows_to_csv(parse_flows(write(tmp_path, "b.csv", canonical)))
    assert again == canonical


# ---------------------------------------------------------------------------
# bars
# ---------------------------------------------------------------------------

def test_parse_bars_no_gaps(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T13:00:00Z,100.5,102,100,101\n")
    bars, gaps = parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))
    assert len(bars) == 2
    assert gaps == 0
    assert bars.close[1] == 101.0


def test_parse_bars_gap_recorded(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T14:00:00Z,100.5,102,100,101\n")
    bars, gaps = parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))
    assert len(bars) == 2
    assert gaps == 1


def test_parse_bars_zero_close(tmp_path):
    text = BARS_HEADER + "2022-01-01T12:00:00Z,100,101,0.0,0\n"
    with pytest.raises(errors.NonPositivePrice):
        parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))


def test_parse_bars_ohlc_violation(tmp_path):
    text = BARS_HEADER + "2022-01-01T12:00:00Z,100,100.2,99,101\n"  # high < close
    with pytest.raises(errors.MalformedRow):
        parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))


def test_parse_bars_off_grid_timestamp(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T12:30:00Z,100,101,99,100.5\n")
    with pytest.raises(errors.FrequencyMismatch):
        parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))


def test_parse_bars_refuses_a_fractional_second_frequency(tmp_path):
    # A 90.5 s frequency must not be read on a 90 s grid.
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T12:01:30Z,100,101,99,100.5\n")
    with pytest.raises(errors.FrequencyMismatch,
                       match="bar frequency must be a positive whole-second duration"):
        parse_bars(write(tmp_path, "bars.csv", text), timedelta(seconds=90.5))


@pytest.mark.parametrize("duration,allow_zero,seconds", [
    (timedelta(minutes=5), False, 300),
    (timedelta(0), True, 0),
    (timedelta(days=10**6), False, 86_400_000_000),
    (timedelta.max - timedelta(microseconds=999999), False, 86_399_999_999_999),
])
def test_seconds_is_exact(duration, allow_zero, seconds):
    assert _seconds(duration, "x", allow_zero=allow_zero) == seconds


def test_seconds_refuses_a_microsecond_past_float_precision():
    # total_seconds() rounds this one to a whole 86,400,000,000 s.
    with pytest.raises(errors.FrequencyMismatch,
                       match=r"^x must be a positive whole-second duration, "
                             r"got 1000000 days, 0:00:00\.000001$"):
        _seconds(timedelta(days=10**6, microseconds=1), "x")


@pytest.mark.parametrize("duration,allow_zero,message", [
    (timedelta(seconds=1.5), True,
     "x must be a non-negative whole-second duration, got 0:00:01.500000"),
    (timedelta(0), False, "x must be a positive whole-second duration, got 0:00:00"),
    (timedelta(seconds=-1), True,
     "x must be a non-negative whole-second duration, got -1 day, 23:59:59"),
    (timedelta.min, True,
     "x must be a non-negative whole-second duration, got -999999999 days, 0:00:00"),
], ids=["fraction", "zero", "negative", "most-negative"])
def test_seconds_refuses_and_never_truncates(duration, allow_zero, message):
    with pytest.raises(errors.FrequencyMismatch) as exc:
        _seconds(duration, "x", allow_zero=allow_zero)
    assert str(exc.value) == message
    with pytest.raises(errors.InvalidConfig):
        _seconds(duration, "x", allow_zero=allow_zero, error=errors.InvalidConfig)


def test_flow_series_refuses_columns_of_different_lengths():
    with pytest.raises(errors.ValidationError) as exc:
        FlowSeries(np.array([0, 3600]), np.array(["ETH"]), np.zeros(2), np.zeros(2))
    assert type(exc.value) is errors.ValidationError
    assert str(exc.value) == "FlowSeries: column assets has 1 rows, timestamps has 2"


@pytest.mark.parametrize("build, to_csv, message", [
    (lambda: BarSeries(np.array([0, 300, 600]), np.ones(2), np.ones(2), np.ones(2),
                       np.ones(2), timedelta(minutes=5)),
     bars_to_csv, "BarSeries: column open has 2 rows, timestamps has 3"),
    (lambda: BarSeries(np.array([0, 300]), np.ones(2), np.ones(2), np.ones(2),
                       np.ones(3), timedelta(minutes=5)),
     bars_to_csv, "BarSeries: column timestamps has 2 rows, close has 3"),
    (lambda: QuoteSeries(np.array([0, 3600]), np.ones(2), np.array([7200, 7200]),
                         np.ones(2), np.ones(2), np.ones(2), np.ones(1)),
     quotes_to_csv, "QuoteSeries: column deltas has 1 rows, quote_times has 2"),
], ids=["bars-short-open", "bars-long-close", "quotes-short-deltas"])
def test_series_refuse_columns_of_different_lengths_before_any_write(tmp_path, build,
                                                                      to_csv, message):
    out = tmp_path / "series.csv"
    with pytest.raises(errors.ValidationError) as exc:
        out.write_text(to_csv(build()))
    assert str(exc.value) == message
    assert not out.exists()


def test_parse_bars_duplicate_timestamp(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n")
    with pytest.raises(errors.FrequencyMismatch):
        parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))


def test_bars_round_trip_is_fixed_point(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T13:00:00Z,100.50,102,100,101\n"
            + "2022-01-01T12:00:00Z,100,101.0,99,100.5\n")
    canonical = bars_to_csv(parse_bars(write(tmp_path, "a.csv", text),
                                       timedelta(hours=1))[0])
    again = bars_to_csv(parse_bars(write(tmp_path, "b.csv", canonical),
                                   timedelta(hours=1))[0])
    assert again == canonical


# ---------------------------------------------------------------------------
# option quotes
# ---------------------------------------------------------------------------

GOOD_QUOTE = "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02129,2000,1.8735,0.17\n"


def test_parse_quotes_accepts_live_quote(tmp_path):
    quotes = parse_option_quotes(write(tmp_path, "o.csv", OPTIONS_HEADER + GOOD_QUOTE))
    assert len(quotes) == 1
    assert quotes.strikes.tolist() == [2000.0]
    assert quotes.expiries.tolist() == [
        int(datetime(2022, 5, 13, 8, tzinfo=timezone.utc).timestamp())]
    order, ids = quotes.instruments()
    assert order.tolist() == [0] and ids.tolist() == [0]


def test_parse_quotes_expired_at_quote(tmp_path):
    row = "2022-05-13T09:00:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n"
    with pytest.raises(errors.ExpiredAtQuote):
        parse_option_quotes(write(tmp_path, "o.csv", OPTIONS_HEADER + row))


def test_parse_quotes_delta_out_of_range(tmp_path):
    row = "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,1.2\n"
    with pytest.raises(errors.DeltaOutOfRange):
        parse_option_quotes(write(tmp_path, "o.csv", OPTIONS_HEADER + row))


def test_parse_quotes_sorted_by_quote_time(tmp_path):
    rows = ("2022-05-12T14:00:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.2\n"
            "2022-05-12T12:00:00Z,2100,2022-05-13T08:00:00Z,0.01,2000,1.8,0.1\n")
    quotes = parse_option_quotes(write(tmp_path, "o.csv", OPTIONS_HEADER + rows))
    assert quotes.quote_times[0] < quotes.quote_times[1]


def test_quotes_round_trip_is_fixed_point(tmp_path):
    rows = (GOOD_QUOTE
            + "2022-05-12T12:00:00Z,2100.0,2022-05-14T08:00:00Z,0.0100,1999.5,0.95,0.08\n")
    canonical = quotes_to_csv(parse_option_quotes(write(tmp_path, "a.csv",
                                                        OPTIONS_HEADER + rows)))
    again = quotes_to_csv(parse_option_quotes(write(tmp_path, "b.csv", canonical)))
    assert again == canonical


# ---------------------------------------------------------------------------
# every row check of every schema, with its class, message and line
# ---------------------------------------------------------------------------

GOOD = {
    "flows": FLOWS_HEADER + "2022-05-12T12:00:00Z,ETH,1,0\n",
    "bars": BARS_HEADER + "2022-01-01T11:00:00Z,100,101,99,100.5\n",
    "options": OPTIONS_HEADER + GOOD_QUOTE,
}
PARSE = {
    "flows": parse_flows,
    "bars": lambda p: parse_bars(p, timedelta(hours=1)),
    "options": parse_option_quotes,
}

ROW_CHECKS = [
    # (id, schema, text after the good rows, error class, str(error))
    ("flows-too-few-fields", "flows",
     "2022-05-12T13:00:00Z,ETH,1\n",
     errors.MalformedRow, "line 3: expected 4 fields, got 3"),
    ("flows-too-many-fields", "flows",
     "2022-05-12T13:00:00Z,ETH,1,0,9\n",
     errors.MalformedRow, "line 3: expected 4 fields, got 5"),
    ("flows-blank-line-counted", "flows",
     "\n2022-05-12T13:00:00Z,ETH,1\n",
     errors.MalformedRow, "line 4: expected 4 fields, got 3"),
    ("flows-bad-timestamp", "flows",
     "12 May 2022,ETH,1,0\n",
     errors.MalformedRow, "line 3: bad timestamp: Invalid isoformat string: '12 May 2022'"),
    ("flows-naive-timestamp", "flows",
     "2022-05-12T13:00:00,ETH,1,0\n",
     errors.MalformedRow,
     "line 3: bad timestamp: timestamp '2022-05-12T13:00:00' has no UTC designator"),
    ("flows-non-utc-timestamp", "flows",
     "2022-05-12T13:00:00+01:00,ETH,1,0\n",
     errors.MalformedRow,
     "line 3: bad timestamp: timestamp '2022-05-12T13:00:00+01:00' is not UTC"),
    ("flows-fractional-timestamp", "flows",
     "2022-05-12T13:00:00.5Z,ETH,1,0\n",
     errors.MalformedRow,
     "line 3: bad timestamp: timestamp '2022-05-12T13:00:00.5Z' has fractional seconds"),
    ("flows-not-hour-aligned", "flows",
     "2022-05-12T13:00:01Z,ETH,1,0\n",
     errors.MalformedRow, "line 3: timestamp '2022-05-12T13:00:01Z' is not hour-aligned"),
    ("flows-unknown-asset", "flows",
     "2022-05-12T13:00:00Z,DOGE,1,0\n",
     errors.MalformedRow, "line 3: unknown asset 'DOGE'"),
    ("flows-bad-float", "flows",
     "2022-05-12T13:00:00Z,ETH,1x,0\n",
     errors.MalformedRow, "line 3: bad inflow_usd '1x'"),
    ("flows-nan", "flows",
     "2022-05-12T13:00:00Z,ETH,1,nan\n",
     errors.MalformedRow, "line 3: non-finite outflow_usd 'nan'"),
    ("flows-inf", "flows",
     "2022-05-12T13:00:00Z,ETH,inf,0\n",
     errors.MalformedRow, "line 3: non-finite inflow_usd 'inf'"),
    ("flows-negative-flow", "flows",
     "2022-05-12T13:00:00Z,ETH,1,-0.5\n",
     errors.NegativeFlow, "line 3: negative flow (1, -0.5)"),
    ("flows-oversized-field", "flows",
     "2022-05-12T13:00:00Z,ETH," + "1" * 131073 + ",0\n",
     errors.MalformedRow, "line 3: field larger than field limit (131072)"),
    ("flows-duplicate", "flows",
     "2022-05-12T13:00:00Z,BTC,1,0\n2022-05-12T13:00:00Z,BTC,2,0\n",
     errors.DuplicateTimestamp, "duplicate (BTC, 2022-05-12T13:00:00Z)"),
    ("bars-too-few-fields", "bars",
     "2022-01-01T12:00:00Z,100,101,99\n",
     errors.MalformedRow, "line 3: expected 5 fields, got 4"),
    ("bars-non-utc-timestamp", "bars",
     "2022-01-01T12:00:00+00:30,100,101,99,100.5\n",
     errors.MalformedRow,
     "line 3: bad timestamp: timestamp '2022-01-01T12:00:00+00:30' is not UTC"),
    ("bars-bad-float", "bars",
     "2022-01-01T12:00:00Z,100,101,low,100.5\n",
     errors.MalformedRow, "line 3: bad low 'low'"),
    ("bars-non-finite", "bars",
     "2022-01-01T12:00:00Z,100,101,99,-inf\n",
     errors.MalformedRow, "line 3: non-finite close '-inf'"),
    ("bars-non-positive-price", "bars",
     "2022-01-01T12:00:00Z,100,101,0,100.5\n",
     errors.NonPositivePrice, "line 3: non-positive price"),
    ("bars-high-below-close", "bars",
     "2022-01-01T12:00:00Z,100,100.2,99,101\n",
     errors.MalformedRow, "line 3: OHLC out of order (100.0, 100.2, 99.0, 101.0)"),
    ("bars-low-above-open", "bars",
     "2022-01-01T12:00:00Z,98,101,99,100.5\n",
     errors.MalformedRow, "line 3: OHLC out of order (98.0, 101.0, 99.0, 100.5)"),
    ("bars-duplicate", "bars",
     "2022-01-01T11:00:00Z,100,101,99,100.5\n",
     errors.FrequencyMismatch, "duplicate bar timestamp 2022-01-01T11:00:00Z"),
    ("options-too-few-fields", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8\n",
     errors.MalformedRow, "line 3: expected 7 fields, got 6"),
    ("options-bad-quote-time", "options",
     "2022-13-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n",
     errors.MalformedRow, "line 3: bad quote_time: month must be in 1..12"),
    ("options-fractional-expiry", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00.25Z,0.02,2000,1.8,0.17\n",
     errors.MalformedRow,
     "line 3: bad expiry: timestamp '2022-05-13T08:00:00.25Z' has fractional seconds"),
    ("options-bad-strike", "options",
     "2022-05-12T13:03:00Z,K2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n",
     errors.MalformedRow, "line 3: bad strike 'K2000'"),
    ("options-non-finite", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,NaN,0.17\n",
     errors.MalformedRow, "line 3: non-finite implied_vol 'NaN'"),
    ("options-zero-strike", "options",
     "2022-05-12T13:03:00Z,0,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n",
     errors.MalformedRow, "line 3: strike and index_price must be positive"),
    ("options-negative-index", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,-1,1.8,0.17\n",
     errors.MalformedRow, "line 3: strike and index_price must be positive"),
    ("options-negative-price", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,-0.02,2000,1.8,0.17\n",
     errors.MalformedRow, "line 3: option_price and implied_vol must be >= 0"),
    ("options-negative-iv", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,-1.8,0.17\n",
     errors.MalformedRow, "line 3: option_price and implied_vol must be >= 0"),
    ("options-expired-at-quote", "options",
     "2022-05-13T08:00:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n",
     errors.ExpiredAtQuote,
     "line 3: expiry 2022-05-13T08:00:00Z at/before quote_time 2022-05-13T08:00:00Z"),
    ("options-delta-above-one", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,1.2\n",
     errors.DeltaOutOfRange, "line 3: call delta 1.2 outside [0, 1]"),
    ("options-delta-below-zero", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,-0.01\n",
     errors.DeltaOutOfRange, "line 3: call delta -0.01 outside [0, 1]"),
    ("options-duplicate", "options",
     "2022-05-12T13:03:00Z,2000,2022-05-13T08:00:00Z,0.05,2000,1.8,0.17\n",
     errors.DuplicateTimestamp,
     "duplicate quote (2022-05-12T13:03:00Z, 2000.0, 2022-05-13T08:00:00Z)"),
]


@pytest.mark.parametrize("schema,text,cls,message", [c[1:] for c in ROW_CHECKS],
                         ids=[c[0] for c in ROW_CHECKS])
def test_row_checks_report_class_message_and_line(tmp_path, schema, text, cls, message):
    p = write(tmp_path, f"{schema}.csv", GOOD[schema] + text)
    with pytest.raises(cls) as exc:
        PARSE[schema](p)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    if message.startswith("line "):  # a row fault, a schema check's included
        assert isinstance(exc.value, errors.MalformedRow)
        assert exc.value.line == int(message.split(":")[0].removeprefix("line "))


@pytest.mark.parametrize("schema", ["flows", "bars", "options"])
@pytest.mark.parametrize("text,message", [
    ("", "line 1: missing header; expected {}"),
    ("a,b\n", "line 1: bad header ['a', 'b']; expected {}"),
])
def test_header_checks(tmp_path, schema, text, message):
    expected = GOOD[schema].splitlines()[0]
    with pytest.raises(errors.MalformedRow) as exc:
        PARSE[schema](write(tmp_path, f"{schema}.csv", text))
    assert str(exc.value) == message.format(expected)
    assert exc.value.line == 1


@pytest.mark.parametrize("schema,text,message", [
    ("options", "2022-05-12T13:03:00Z,K,2022-05-13T08:00:00.5Z,0.02,2000,1.8,0.17\n",
     "line 3: bad strike 'K'"),
    ("flows", "2022-05-12T13:30:00Z,DOGE,x,0\n",
     "line 3: timestamp '2022-05-12T13:30:00Z' is not hour-aligned"),
    ("bars", "2022-01-01T12:00:00Z,0,x,99,100.5\n", "line 3: bad high 'x'"),
])
def test_first_fault_in_column_order_is_reported(tmp_path, schema, text, message):
    with pytest.raises(errors.MalformedRow) as exc:
        PARSE[schema](write(tmp_path, f"{schema}.csv", GOOD[schema] + text))
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    "0001-01-01T00:00:00Z", "0999-06-01T00:00:00Z", "1969-12-31T23:59:59Z",
    "9999-12-31T23:59:59Z",
])
def test_timestamp_text_round_trips(text):
    assert format_timestamp(parse_timestamp(text)) == text


# ---------------------------------------------------------------------------
# write(parse(write(cols))) == write(cols), and parse returns cols in key order
# ---------------------------------------------------------------------------

T_MAX = 253402300799  # 9999-12-31T23:59:59Z
NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


def instants(last=datetime(9999, 12, 31, 23, 59, 59)):
    """Whole-second UTC epochs up to ``last``. Hypothesis draws each calendar
    field on its own, so every year from 0001 to 9999 turns up."""
    return st.datetimes(max_value=last).map(
        lambda d: int(d.replace(microsecond=0, tzinfo=timezone.utc).timestamp()))


def parse_text(parse, text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.csv"
        path.write_text(text, encoding="utf-8")
        return parse(path)


def assert_same_columns(got, want, names):
    assert len(got) == len(want)
    for name in names:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def check_round_trip(rows, key, build, parse, to_csv, names):
    drawn = build(rows)
    in_key_order = build(sorted(rows, key=key))
    canonical = to_csv(in_key_order)
    assert to_csv(parse_text(parse, canonical)) == canonical
    assert_same_columns(parse_text(parse, to_csv(drawn)), in_key_order, names)


@given(st.lists(st.tuples(st.sampled_from([a.value for a in Asset]),
                          instants().map(lambda t: t - t % 3600),
                          NON_NEGATIVE, NON_NEGATIVE),
                unique_by=lambda r: r[:2], max_size=20))
def test_flows_codec_round_trip(rows):
    def build(rows):
        cols = list(zip(*rows)) or [[]] * 4
        return FlowSeries(cols[1], cols[0], cols[2], cols[3])

    check_round_trip(rows, lambda r: r[:2], build, parse_flows, flows_to_csv,
                     ["timestamps", "assets", "inflow_usd", "outflow_usd"])


@st.composite
def bar_values(draw):
    low, a, b, high = sorted(draw(st.lists(POSITIVE, min_size=4, max_size=4)))
    return (a, high, low, b) if draw(st.booleans()) else (b, high, low, a)


@given(instants(datetime(9999, 12, 27)), st.sampled_from([60, 300, 3600]),
       st.lists(st.tuples(st.integers(0, 99), bar_values()),
                unique_by=lambda r: r[0], max_size=20))
def test_bars_codec_round_trip(start, step, rows):
    def build(rows):
        ts = [start + step * k for k, _ in rows]
        cols = list(zip(*[v for _, v in rows])) or [[]] * 4
        return BarSeries(ts, *cols, frequency=timedelta(seconds=step))

    check_round_trip(rows, lambda r: r[0], build,
                     lambda p: parse_bars(p, timedelta(seconds=step))[0], bars_to_csv,
                     ["timestamps", "open", "high", "low", "close"])


@st.composite
def quote_rows(draw):
    quote_time = draw(instants(datetime(9999, 12, 31, 23, 59, 58)))
    expiry = draw(st.integers(quote_time + 1, T_MAX))
    return (quote_time, draw(POSITIVE), expiry, draw(NON_NEGATIVE), draw(POSITIVE),
            draw(NON_NEGATIVE), draw(st.floats(min_value=0.0, max_value=1.0)))


@given(st.lists(quote_rows(), unique_by=lambda r: r[:3], max_size=20))
def test_quotes_codec_round_trip(rows):
    def build(rows):
        return QuoteSeries(*(list(zip(*rows)) or [[]] * 7))

    check_round_trip(rows, lambda r: r[:3], build, parse_option_quotes, quotes_to_csv,
                     ["quote_times", "strikes", "expiries", "option_prices",
                      "index_prices", "implied_vols", "deltas"])


# ---------------------------------------------------------------------------
# the columnar reader against the row-at-a-time reference reader
# ---------------------------------------------------------------------------

SCHEMAS = {"flows": FLOWS, "bars": BARS, "options": OPTIONS}


def outcome(read, path, schema):
    """What a reader does with a file: its columns' dtypes and bytes, or the
    class, message and line of the error it raises."""
    try:
        columns = read(path, schema)
    except errors.FlowcastError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return column_bytes(columns)


def column_bytes(columns):
    return [(col.dtype.str, col.tobytes()) for col in columns]


def assert_readers_agree(path, schema):
    got = outcome(read_table, path, schema)
    assert got == outcome(reference_read_table, path, schema)
    return got


def csv_line(fields):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


def timestamp_spellings(epoch):
    """Texts that parse_timestamp reads as ``epoch``; only the first is canonical."""
    c = format_timestamp(epoch)
    return [c, c[:-1] + "+00:00", c[:10] + " " + c[11:], f" {c} ", c[:-1] + ".000Z",
            c.replace("-", "").replace(":", ""), c + "\n", "\u00a0" + c]


def number_spellings(x):
    return [repr(x), f"{x:.17g}", f" {x!r} ", f"{x!r}\n", f"{x:e}"]


def asset_spellings(a):
    return [a, f" {a} ", f"{a}\n", f"\t{a}"]


SPELLINGS = {TIMESTAMP: timestamp_spellings, HOUR: timestamp_spellings,
             NUMBER: number_spellings, ASSET: asset_spellings}

BAD_TIMESTAMPS = ["12 May 2022", "2022-05-12T13:00:00", "2022-05-12T13:00:00+01:00",
                  "2022-05-12T13:00:00.5Z", "2021-02-29T00:00:00Z", "0000-01-01T00:00:00Z",
                  "2021-01-01T24:00:00Z", "2021-13-01T00:00:00Z", "2021-01-01T00:00:60Z",
                  "", "２０２１-01-01T00:00:00Z", "2021-01-01T00:00:00ZZ"]
BAD_FIELDS = {  # faults of every converter
    TIMESTAMP: BAD_TIMESTAMPS,
    HOUR: BAD_TIMESTAMPS + ["2022-05-12T13:30:00Z", "2022-05-12T13:00:01Z"],
    NUMBER: ["abc", "", "nan", "inf", "-Infinity", "1e309", "0x1p3", "1,5", "1x"],
    ASSET: ["DOGE", "USDTX", "", "eth", "ETH ETH"],
}
CHECK_FAULTS = {  # (column, text) that fail each row check of each schema
    "flows": [(2, "-1"), (3, "-0.5")],
    "bars": [(1, "0"), (4, "-2"), (3, "1e300"), (2, "1e-300")],
    "options": [(1, "0"), (4, "-1"), (3, "-0.01"), (5, "-1"), (2, "0001-01-01T00:00:00Z"),
                (6, "1.5"), (6, "-0.01")],
}


def valid_rows(name):
    if name == "flows":
        return st.lists(st.tuples(instants().map(lambda t: t - t % 3600),
                                  st.sampled_from([a.value for a in Asset]),
                                  NON_NEGATIVE, NON_NEGATIVE),
                        unique_by=lambda r: r[:2], max_size=12)
    if name == "bars":
        return st.lists(st.tuples(instants(), bar_values()).map(lambda r: (r[0], *r[1])),
                        unique_by=lambda r: r[0], max_size=12)
    return st.lists(quote_rows(), unique_by=lambda r: r[:3], max_size=12)


FAULTS = ["field", "field", "check", "check", "few", "many", "oversized", "utf8", "duplicate"]
PLAIN_FAULTS = ["1e999", "feb29", "long-timestamp", "check", "few", "many", "oversized",
                "at-limit", "duplicate", "blank", "no-final-newline", "lone-cr",
                "space"]  # spelt in bytes the C pass reads or rewrites


@st.composite
def table_files(draw, name, canonical=False):
    """(clean, bytes) of a file for schema ``name``: valid rows in random
    spellings, blank and quoted-newline records, and up to two faults. With
    ``canonical``, ``write_table``'s spelling of each field, except that each
    row may spell its timestamps with ``+00:00`` for ``Z`` or a space for
    ``T``, LF or CRLF line ends and at most one fault spelt in those bytes;
    ``clean`` says the file is such, has a row and has no fault but a blank line."""
    columns = SCHEMAS[name].columns
    spell = (lambda s: s[0]) if canonical else (lambda s: draw(st.sampled_from(s)))
    rows = [[spell(SPELLINGS[kind](value)) for (_, kind), value in zip(columns, row)]
            for row in draw(valid_rows(name))]
    stamps = [j for j, (_, kind) in enumerate(columns) if kind in (TIMESTAMP, HOUR)]
    crlf = canonical and draw(st.booleans())
    for row in rows if canonical else []:
        utc, sep = draw(st.sampled_from(["Z", "+00:00"])), draw(st.sampled_from(["T", " "]))
        for k in stamps:
            row[k] = row[k].replace("Z", utc).replace("T", sep)
    numbers = [j for j, (_, kind) in enumerate(columns) if kind is NUMBER]
    faults = PLAIN_FAULTS + (["expired"] if name == "options" else []) if canonical else FAULTS
    byte_fault = lone_cr = None
    drawn = draw(st.lists(st.sampled_from(faults), max_size=(1 if canonical else 2) if rows else 0))
    for fault in drawn:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(columns) - 1))
        if fault in ("field", "check", "oversized") and len(rows[i]) != len(columns):
            continue  # a field-count fault took this row already
        if fault == "field":
            rows[i][j] = draw(st.sampled_from(BAD_FIELDS[columns[j][1]]))
        elif fault == "1e999":
            rows[i][draw(st.sampled_from(numbers))] = "1e999"
        elif fault == "feb29":
            rows[i][draw(st.sampled_from(stamps))] = "2021-02-29T00:00:00Z"
        elif fault == "long-timestamp":
            k = draw(st.sampled_from(stamps))
            c = rows[i][k]
            rows[i][k] = draw(st.sampled_from([c[:-1] + "+00:00", c[:-1] + ".000Z", "1" + c,
                                               c + "Z"]))
        elif fault == "check":
            j, rows[i][j] = draw(st.sampled_from(CHECK_FAULTS[name]))
        elif fault == "few":
            rows[i] = rows[i][:-1]
        elif fault == "many":
            rows[i] = rows[i] + ["0"]
        elif fault == "oversized" and not canonical:
            rows[i][j] = "1" * 131073
        elif fault in ("oversized", "at-limit"):  # a number field over the limit, or at it
            k = draw(st.sampled_from(numbers))
            rows[i][k] = rows[i][k].rjust(131072 + (fault == "oversized"), "0")
        elif fault == "expired":
            rows[i][2] = rows[i][0]
        elif fault == "utf8":
            byte_fault = i
        elif fault == "lone-cr":
            lone_cr = i
        elif fault == "space":  # such as E H for ETH, which no rewrite may make ETH
            k = draw(st.sampled_from([k for k in range(len(columns)) if k not in stamps]))
            rows[i][k] = rows[i][k].replace("T", " ") if "T" in rows[i][k] else rows[i][k] + " 1"
        elif fault == "duplicate":
            rows.insert(i, list(rows[draw(st.integers(0, len(rows) - 1))]))
    lines = [csv_line(row).encode() for row in rows]
    if byte_fault is not None:
        lines[byte_fault] = b"\xff" + lines[byte_fault]
    if lone_cr is not None:
        lines[lone_cr] = lines[lone_cr][:-1] + b"\r"
    blanks = [b"\n"] * ("blank" in drawn) if canonical else [
        draw(st.sampled_from([b"\n", b"  \n"])) for _ in range(draw(st.integers(0, 2)))]
    for blank in blanks:
        lines.insert(draw(st.integers(0, len(lines))), blank)
    data = csv_line([n for n, _ in columns]).encode() + b"".join(lines)
    data = data[:-1] if "no-final-newline" in drawn else data
    clean = canonical and bool(rows) and drawn in ([], ["blank"])  # csv skips a blank line
    return clean, data.replace(b"\n", b"\r\n") if crlf else data


def read_both(name, drawn):
    """The readers agree. The C pass takes every clean file, and reads what
    the csv path reads from any file it takes."""
    clean, data = drawn
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"{name}.csv"
        path.write_bytes(data)
        assert_readers_agree(path, SCHEMAS[name])
        loaded = _load_canonical(data, SCHEMAS[name])
        assert loaded is not None or not clean
        if loaded is not None:
            assert column_bytes(loaded) == column_bytes(_read_records(data, path, SCHEMAS[name]))


@settings(max_examples=300)
@given(table_files("flows"))
def test_flows_reader_matches_reference(drawn):
    read_both("flows", drawn)


@settings(max_examples=300)
@given(table_files("bars"))
def test_bars_reader_matches_reference(drawn):
    read_both("bars", drawn)


@settings(max_examples=300)
@given(table_files("options"))
def test_options_reader_matches_reference(drawn):
    read_both("options", drawn)


@settings(max_examples=200)
@given(table_files("flows", canonical=True))
def test_flows_c_pass_matches_reference(drawn):
    read_both("flows", drawn)


@settings(max_examples=200)
@given(table_files("bars", canonical=True))
def test_bars_c_pass_matches_reference(drawn):
    read_both("bars", drawn)


@settings(max_examples=200)
@given(table_files("options", canonical=True))
def test_options_c_pass_matches_reference(drawn):
    read_both("options", drawn)


def fast_takes(kind, text):
    try:
        return bool(kind.take(np.array([text], kind.text))[1][0])
    except ValueError:  # such as a text that is not ASCII
        return False


SPELLING_CASES = [
    # (schema, column, text, file taken by the C pass, id suffix); the suffix only
    # completes the test id, and in the first 27 keeps the id earlier versions gave
    ("flows", 2, " 1.5 ", False, True), ("flows", 2, "1_000", False, True),
    ("flows", 2, "١", False, True), ("flows", 2, "inf", False, False),
    ("flows", 2, "-Infinity", False, False), ("flows", 2, "nan", False, False),
    ("flows", 2, "0x1p3", False, False), ("flows", 2, "1e309", False, False),
    ("flows", 2, "-0.0", True, True), ("flows", 2, "+1.5", True, True),
    ("flows", 2, ".5", True, True), ("flows", 2, "1E+2", True, True),
    ("flows", 1, "USDTX", False, False), ("flows", 1, " ETH ", False, True),
    ("flows", 1, "USDTE", False, False), ("flows", 1, "USDTETH", False, False),
    ("bars", 0, "0000-01-01T00:00:00Z", False, False),
    ("bars", 0, "2020-02-29T00:00:00Z", True, True),
    ("bars", 0, "2021-02-29T00:00:00Z", False, False),
    ("bars", 0, "2021-01-01 00:00:00Z", True, False),
    ("bars", 0, "2021-01-01T00:00:00+00:00", True, False),
    ("bars", 0, "2021-01-01T00:00:00Z ", False, False),
    ("bars", 0, "12021-01-01T00:00:00Z", False, False),
    ("bars", 0, "2021-01-01T00:00:00ZZ", False, False),
    ("bars", 0, "2021-01-01T00:00:0٠Z", False, False),
    ("flows", 0, "2021-01-01T00:30:00Z", False, False),
    ("flows", 0, "2021-01-01T01:00:00Z", True, True),
    # spaces and +00:00 in other places than a timestamp's T and Z: no rewrite may take them
    ("flows", 1, "E H", False, "rewrite"), ("flows", 1, "USD ", False, "rewrite"),
    ("flows", 2, "1 0", False, "rewrite"), ("flows", 2, "1+00:00", False, "rewrite"),
    ("bars", 0, "2021-01-01T00:00+00:00", False, "rewrite"),
    ("bars", 0, "2021-01-01 00:00:00 +00:00", False, "rewrite"),
    ("bars", 0, "2021-01-01  00:00:00Z", False, "rewrite"),
]


@pytest.mark.parametrize("schema,column,text,loaded", [c[:4] for c in SPELLING_CASES],
                         ids=["-".join(map(str, c[:3] + c[4:])) for c in SPELLING_CASES])
def test_fast_path_spellings_match_reference(tmp_path, schema, column, text, loaded):
    template = {"flows": ["2022-05-12T13:00:00Z", "ETH", "1", "0"],
                "bars": ["2022-01-01T12:00:00Z", "100", "101", "99", "100.5"]}[schema]
    fields = template[:column] + [text] + template[column + 1:]
    path = tmp_path / f"{schema}.csv"
    path.write_text(GOOD[schema] + csv_line(fields), encoding="utf-8")
    assert_readers_agree(path, SCHEMAS[schema])
    assert (_load_canonical(path.read_bytes(), SCHEMAS[schema]) is not None) is loaded


def test_synth_dataset_is_read_by_the_c_pass(tmp_path, monkeypatch):
    # A declined file would fall back to csv.reader silently, with the same values.
    # Each file is read as written, with CRLF line ends, with +00:00 for Z, and
    # as csv.writer writes its values with the timestamps as aware datetimes.
    assert main(["synth", "--seed", "7", "--hours", "200", "--out", str(tmp_path)]) == 0

    def no_csv(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_csv)
    assert len(parse_flows(tmp_path / "flows.csv")) == 3 * 200
    for name in ("bars_eth.csv", "bars_btc.csv"):
        bars, gaps = parse_bars(tmp_path / name, timedelta(minutes=5))
        assert len(bars) == 12 * 200 and gaps == 0
    assert len(parse_option_quotes(tmp_path / "options.csv")) > 0
    files = {"flows.csv": FLOWS, "bars_eth.csv": BARS, "bars_btc.csv": BARS, "options.csv": OPTIONS}
    for name, schema in files.items():
        data = (tmp_path / name).read_bytes()
        columns = read_table(tmp_path / name, schema)
        text = io.StringIO()  # csv.writer's defaults: CRLF, and str() of an aware datetime
        csv.writer(text).writerows([[n for n, _ in schema.columns]] + list(zip(*[
            [to_datetime(t) for t in col.tolist()] if kind in (TIMESTAMP, HOUR) else col.tolist()
            for (_, kind), col in zip(schema.columns, columns)])))
        first = text.getvalue().split("\r\n")[1].split(",")[0]
        assert first[10] == " " and first.endswith("+00:00")
        for rewritten in (data.replace(b"\n", b"\r\n"), data.replace(b"Z", b"+00:00"),
                          text.getvalue().encode()):
            path = tmp_path / f"rewritten_{name}"
            path.write_bytes(rewritten)
            assert column_bytes(read_table(path, schema)) == column_bytes(columns)


def test_fast_timestamps_take_exactly_the_dates_parse_timestamp_accepts():
    # numpy's datetime parser is the C pass's; fromisoformat is the scalar
    # path's. Every calendar field out of range on either side must agree.
    for year in ("0001", "1900", "2000", "2020", "2021", "9999"):
        for month in range(14):
            for day in range(33):
                text = f"{year}-{month:02d}-{day:02d}T00:00:00Z"
                _assert_fast_agrees(text)
    for hms in [(h, m, s) for h in (0, 23, 24, 99) for m in (0, 59, 60) for s in (0, 59, 60)]:
        _assert_fast_agrees("2021-12-31T{:02d}:{:02d}:{:02d}Z".format(*hms))


def _assert_fast_agrees(text):
    try:
        expected = parse_timestamp(text)
    except ValueError:
        expected = None
    taken = fast_takes(TIMESTAMP, text)
    assert taken is (expected is not None), text
    if taken:
        assert TIMESTAMP.take(np.array([text], TIMESTAMP.text))[0][0] == expected, text


# ---------------------------------------------------------------------------
# which fault is reported: the first faulty record, then a stream fault
# ---------------------------------------------------------------------------

def flows_rows(n):
    return [f"{format_timestamp(1609459200 + 3600 * k)},ETH,{k},0\n" for k in range(n)]


@pytest.mark.parametrize("stream", ["few-fields", "oversized", "utf8"])
@pytest.mark.parametrize("value_row", [5, 350])
def test_stream_fault_is_reported_only_after_earlier_records(tmp_path, stream, value_row):
    # A wrong field count, an oversized field or a non-UTF-8 byte on row 300,
    # and a bad number on an earlier or a later row: the earlier fault wins.
    rows = flows_rows(400)
    rows[value_row] = rows[value_row].replace(",ETH,", ",ETH,x")
    if stream == "few-fields":
        rows[300] = "2021-02-01T00:00:00Z,ETH,1\n"
    elif stream == "oversized":
        rows[300] = "2021-02-01T00:00:00Z,ETH," + "1" * 131073 + ",0\n"
    data = (FLOWS_HEADER + "".join(rows)).encode()
    if stream == "utf8":
        # Past the first 8 KiB, which the decoder reads and checks as one
        # block, so the records in that block are read before the fault.
        offset = len((FLOWS_HEADER + "".join(rows[:300])).encode())
        assert offset > 8192
        data = data[:offset] + b"\xff" + data[offset:]
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    got = assert_readers_agree(path, FLOWS)
    if value_row < 300:
        assert got == (errors.MalformedRow, f"line {value_row + 2}: bad inflow_usd "
                       f"'x{value_row}'", value_row + 2)
    elif stream == "utf8":
        assert got == (errors.ValidationError, f"{path}: not valid UTF-8", None)
    else:
        message = {"few-fields": "expected 4 fields, got 3",
                   "oversized": "field larger than field limit (131072)"}[stream]
        assert got == (errors.MalformedRow, f"line 302: {message}", 302)


def test_utf8_fault_in_a_block_hides_the_records_before_it_in_that_block(tmp_path):
    rows = flows_rows(400)
    rows[290] = rows[290].replace(",ETH,", ",ETH,x")
    offset = len((FLOWS_HEADER + "".join(rows[:300])).encode())
    assert len((FLOWS_HEADER + "".join(rows[:290])).encode()) > 8192
    data = (FLOWS_HEADER + "".join(rows)).encode()
    path = tmp_path / "flows.csv"
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    assert assert_readers_agree(path, FLOWS)[0] is errors.ValidationError
