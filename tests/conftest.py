import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from flowcast.ingest import Asset, BarSeries, FlowSeries, OptionQuote

# Fixed example order and no example database, so a run is repeatable; no
# deadline, since the first example of a test pays for numpy's warm-up.
# Hypothesis still caches the constants it scans from source files, so its
# home moves to the temp directory and no .hypothesis/ lands in the tree.
settings.register_profile("flowcast", derandomize=True, database=None, deadline=None)
settings.load_profile("flowcast")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "flowcast-hypothesis")

# Epoch-hour origin used across tests: 2021-01-07T00:00:00Z, a multiple of
# 168h so every horizon grid starts on the first sample.
T0 = 1609977600
HOUR_S = 3600


def make_flows(nets_musd, asset=Asset.ETH, start=T0, gaps=()):
    """Hourly FlowSeries from net values in US$M; indices in `gaps` dropped."""
    nets = np.asarray(nets_musd, dtype=np.float64) * 1e6
    keep = np.array([i not in set(gaps) for i in range(len(nets))], dtype=bool)
    ts = (start + HOUR_S * np.arange(len(nets), dtype=np.int64))[keep]
    nets = nets[keep]
    return FlowSeries(ts, np.full(len(ts), asset.value, dtype="U4"),
                      np.maximum(nets, 0.0), np.maximum(-nets, 0.0))


def make_bars(closes, frequency=timedelta(hours=1), start=T0, gaps=(),
              asset=Asset.ETH, opens=None):
    """BarSeries from a close path; opens default to the previous close."""
    closes = np.asarray(closes, dtype=np.float64)
    if opens is None:
        opens = np.concatenate([closes[:1], closes[:-1]])
    else:
        opens = np.asarray(opens, dtype=np.float64)
    keep = np.array([i not in set(gaps) for i in range(len(closes))], dtype=bool)
    f_s = int(frequency.total_seconds())
    ts = (start + f_s * np.arange(len(closes), dtype=np.int64))[keep]
    closes, opens = closes[keep], opens[keep]
    return BarSeries(ts, opens, np.maximum(opens, closes),
                     np.minimum(opens, closes), closes, frequency, asset=asset)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def reference_trade_quotes():
    """Case-study fixture: one short-call entry and three timed exits.

    The entry premium is $42.58 at index 2000 with a 0.17 delta; each exit
    quote is constructed so the sell-side option return and the hedged
    underlying return land on the expected triple (r_sell, r_underlying,
    r_portfolio) for the 1h/4h/6h horizons.
    """
    strike, expiry = 2000.0, utc(2022, 5, 13, 8)
    index0 = 2000.0
    entry = OptionQuote(quote_time=utc(2022, 5, 12, 12, 3), strike=strike,
                        expiry=expiry, option_price=42.58 / index0,
                        index_price=index0, implied_vol=1.8735, delta=0.17)
    expected = [
        # (exit time, r_sell, r_underlying, r_portfolio)
        (utc(2022, 5, 12, 13, 3), -0.0222, 0.0037, -0.0185),
        (utc(2022, 5, 12, 16, 1), 0.0823, -0.0137, 0.0686),
        (utc(2022, 5, 12, 18, 0), 0.3204, -0.0534, 0.2670),
    ]
    exits = []
    for when, r_sell, r_ul, r_port in expected:
        p_exit = 42.58 * (1.0 - r_sell)
        index_exit = index0 * (1.0 + r_ul / entry.delta)
        exits.append((OptionQuote(quote_time=when, strike=strike, expiry=expiry,
                                  option_price=p_exit / index_exit,
                                  index_price=index_exit, implied_vol=1.88,
                                  delta=0.17),
                      (r_sell, r_ul, r_port)))
    return entry, exits
