import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcast import errors
from flowcast.ingest import (
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
)

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
    rec = flows[0]
    assert rec.asset == Asset.ETH
    assert rec.inflow_usd == 26789010.0
    assert rec.outflow_usd == 0.0
    assert rec.net_usd == 26789010.0
    assert rec.timestamp.tzinfo == timezone.utc
    assert rec.timestamp.isoformat() == "2022-05-12T12:00:00+00:00"


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
    assert gaps == []
    assert bars[1].close == 101.0


def test_parse_bars_gap_recorded(tmp_path):
    text = (BARS_HEADER
            + "2022-01-01T12:00:00Z,100,101,99,100.5\n"
            + "2022-01-01T14:00:00Z,100.5,102,100,101\n")
    bars, gaps = parse_bars(write(tmp_path, "bars.csv", text), timedelta(hours=1))
    assert len(bars) == 2
    assert [g.isoformat() for g in gaps] == ["2022-01-01T13:00:00+00:00"]


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
    q = quotes[0]
    assert q.strike == 2000.0
    assert q.expiry.isoformat() == "2022-05-13T08:00:00+00:00"
    assert q.instrument == (2000.0, q.expiry)


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
    if cls is errors.MalformedRow:
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
