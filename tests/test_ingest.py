from datetime import timedelta, timezone

import pytest

from flowcast import errors
from flowcast.ingest import (
    Asset,
    bars_to_csv,
    flows_to_csv,
    parse_bars,
    parse_flows,
    parse_option_quotes,
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
