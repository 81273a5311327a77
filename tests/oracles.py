"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written the slow, obvious way, without
reusing any code path from the package under test: explicit loops,
explicit Gaussian elimination, numeric quadrature. There are three
exceptions. ``reference_backtest`` re-implements the quote lookup, one
``OptionQuote`` per quote and the per-trade bucket filter and aggregation,
and shares only the scalar trade accounting (``trade``) with the package.
``reference_read_table`` is the row-at-a-time CSV reader: it shares the
schemas and the scalar converters and checks (``check_row``) with the
package, and re-implements the reading loop and the order of its faults.
``reference_align`` is the timestamp-matching ``align``: it shares the
sample type and the errors with the package. ``reference_option_chain``
is the per-hour synthetic call chain, priced one quote at a time by the
scalar ``reference_black_scholes_call``; it shares only ``QuoteSeries``.
"""

import csv
import math
from datetime import datetime, timezone

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from flowcast import synth
from flowcast.errors import EmptyAlignment, HorizonMismatch, MalformedRow, ValidationError
from flowcast.ingest import OptionQuote, QuoteSeries, check_row
from flowcast.options import (
    WTL_COUNTS,
    WTL_PNL,
    BacktestDiagnostics,
    BucketStats,
    call_price,
    select_percentile_hours,
    trade,
)
from flowcast.series import AlignedSample, _seconds


def bucket_sums(timestamps, nets_musd, horizon_s):
    """Loop-based net-inflow bucketing: full epoch-aligned buckets only."""
    by_hour = dict(zip((int(t) for t in timestamps), nets_musd))
    buckets = {}
    for t in by_hour:
        buckets.setdefault(t - t % horizon_s, []).append(t)
    out = {}
    for b, hours in buckets.items():
        if len(hours) == horizon_s // 3600:
            out[b] = sum(by_hour[t] for t in sorted(hours))
    return dict(sorted(out.items()))


def forward_returns(bar_ts, closes, freq_s, horizon_s):
    """Close-ratio returns with full-window coverage, by direct recomputation."""
    close_at = dict(zip((int(t) for t in bar_ts), closes))
    nsub = horizon_s // freq_s
    out = {}
    t = 0
    lo, hi = min(close_at), max(close_at)
    t = ((lo + freq_s + horizon_s - 1) // horizon_s) * horizon_s
    while t + horizon_s - freq_s <= hi:
        window = [t - freq_s + j * freq_s for j in range(nsub + 1)]
        if all(w in close_at for w in window):
            out[t] = close_at[window[-1]] / close_at[window[0]] - 1.0
        t += horizon_s
    return out


def two_pass_std(xs):
    """Textbook sample standard deviation with the n-1 denominator."""
    n = len(xs)
    mean = sum(xs) / n
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))


def numpy_std(xs):
    """``np.std`` with the n-1 denominator over a fresh copy of one window."""
    return float(np.std(np.array(xs, dtype=np.float64), ddof=1))


def window_vols(bar_ts, closes, freq_s, horizon_s, std=two_pass_std):
    """Realized vol per window: sub-bar close-to-close returns, ``std`` of them."""
    close_at = dict(zip((int(t) for t in bar_ts), closes))
    nsub = horizon_s // freq_s
    out = {}
    lo, hi = min(close_at), max(close_at)
    t = ((lo + freq_s + horizon_s - 1) // horizon_s) * horizon_s
    while t + horizon_s - freq_s <= hi:
        needed = [t - freq_s + j * freq_s for j in range(nsub + 1)]
        if all(w in close_at for w in needed):
            subs = [close_at[needed[j + 1]] / close_at[needed[j]] - 1.0
                    for j in range(nsub)]
            out[t] = std(subs)
        t += horizon_s
    return out


def gaussian_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    M = [list(map(float, row)) + [float(bi)] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[pivot][col]) == 0:
            raise ZeroDivisionError("singular system")
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(col + 1, n):
            factor = M[r][col] / M[col][col]
            for c in range(col, n + 1):
                M[r][c] -= factor * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (M[r][n] - sum(M[r][c] * x[c] for c in range(r + 1, n))) / M[r][r]
    return x


def matrix_inverse(A):
    n = len(A)
    cols = []
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        cols.append(gaussian_solve(A, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ols_reference(X, y):
    """Normal-equation OLS with classical standard errors, loop-built.

    Returns (beta, se, r2_adj).
    """
    X = [list(map(float, row)) for row in np.asarray(X)]
    y = [float(v) for v in np.asarray(y)]
    n, p = len(X), len(X[0])
    xtx = [[sum(X[t][i] * X[t][j] for t in range(n)) for j in range(p)]
           for i in range(p)]
    xty = [sum(X[t][i] * y[t] for t in range(n)) for i in range(p)]
    beta = gaussian_solve(xtx, xty)
    resid = [y[t] - sum(X[t][j] * beta[j] for j in range(p)) for t in range(n)]
    sse = sum(e * e for e in resid)
    s2 = sse / (n - p)
    inv = matrix_inverse(xtx)
    se = [math.sqrt(s2 * inv[i][i]) for i in range(p)]
    ybar = sum(y) / n
    sst = sum((v - ybar) ** 2 for v in y)
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    return beta, se, r2_adj


def newey_west_reference(X, resid, lags):
    """Double-loop Newey-West covariance with Bartlett weights."""
    X = np.asarray(X, dtype=float)
    resid = np.asarray(resid, dtype=float)
    n, p = X.shape
    S = np.zeros((p, p))
    for t in range(n):
        xe = X[t] * resid[t]
        S += np.outer(xe, xe)
    for j in range(1, lags + 1):
        w = 1.0 - j / (lags + 1.0)
        for t in range(j, n):
            a = X[t] * resid[t]
            b = X[t - j] * resid[t - j]
            S += w * (np.outer(a, b) + np.outer(b, a))
    xtx_inv = np.array(matrix_inverse((X.T @ X).tolist()))
    return xtx_inv @ S @ xtx_inv


def t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
    c /= math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def t_two_sided_p(t_stat, df):
    """Two-sided Student-t p-value via numeric quadrature of the density."""
    tail, _ = quad(t_density, abs(t_stat), math.inf, args=(df,))
    return 2.0 * tail


def normal_density(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def call_value_quad(index, strike, years, sigma):
    """European call value under a zero-rate lognormal terminal price,
    by quadrature over the standard normal shock."""
    def payoff(z):
        terminal = index * math.exp(-0.5 * sigma * sigma * years
                                    + sigma * math.sqrt(years) * z)
        return max(terminal - strike, 0.0) * normal_density(z)
    value, _ = quad(payoff, -12.0, 12.0, limit=200)
    return value


def _quote(quotes, i):
    """Row i of a QuoteSeries as an OptionQuote."""
    def when(epoch):
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return OptionQuote(when(quotes.quote_times[i]), float(quotes.strikes[i]),
                       when(quotes.expiries[i]), float(quotes.option_prices[i]),
                       float(quotes.index_prices[i]), float(quotes.implied_vols[i]),
                       float(quotes.deltas[i]))


def bucket_matches(key, t):
    """Whether one TradeOutcome falls in a BucketKey, tested bound by bound."""
    iv = t.entry.implied_vol
    if key.iv_min is not None and not iv >= key.iv_min:
        return False
    if key.iv_max is not None and not iv < key.iv_max:
        return False
    if key.otm_lo is not None or key.otm_hi is not None:
        m = (t.entry.strike - t.entry.index_price) / t.entry.index_price
        if key.otm_lo is not None and not m >= key.otm_lo:
            return False
        if key.otm_hi is not None and not m < key.otm_hi:
            return False
    return True


def reference_bucket_stats(trades, key, wtl_mode=WTL_COUNTS):
    """BucketStats of a list of TradeOutcomes, one trade at a time."""
    selected = [t for t in trades if bucket_matches(key, t)]
    total = len(selected)
    if total == 0:
        return BucketStats(win_rate=None, total_trades=0, wtl=None,
                           r_avg_net=None, r_total_net=0.0)
    wins = [t for t in selected if t.win]
    losses = [t for t in selected if not t.win]
    if wtl_mode == WTL_COUNTS:
        wtl = len(wins) / len(losses) if losses else None
    else:
        assert wtl_mode == WTL_PNL
        loss_sum = abs(math.fsum(t.r_portfolio_net for t in losses))
        wtl = (math.fsum(t.r_portfolio_net for t in wins) / loss_sum
               if loss_sum > 0 else None)
    total_net = math.fsum(t.r_portfolio_net for t in selected)
    return BucketStats(win_rate=len(wins) / total, total_trades=total, wtl=wtl,
                       r_avg_net=total_net / total, r_total_net=total_net)


def reference_backtest(net_series, quotes, pct, leg, side, costs, buckets,
                       holding_s=3600, tolerance_s=1800, wtl_mode=WTL_COUNTS):
    """Percentile backtest that probes every instrument on every event.

    For each selected hour and each (strike, expiry) in sorted order, the
    entry is the instrument's first quote in [event, event + tolerance] and
    the exit its first quote in [entry + holding, entry + holding +
    tolerance], both found by a linear scan of the instrument's quotes.
    Each trade is one ``trade`` of two ``OptionQuote``s, and each bucket
    filters and sums the list of trades. Returns the bucket stats and the
    diagnostics, like ``run_percentile_backtest``.
    """
    by_instrument = {}
    for i in range(len(quotes)):  # quotes are time-sorted
        key = (float(quotes.strikes[i]), int(quotes.expiries[i]))
        by_instrument.setdefault(key, []).append(i)

    def first_at_or_after(key, epoch):
        for i in by_instrument[key]:
            t = int(quotes.quote_times[i])
            if t >= epoch:
                return i if t <= epoch + tolerance_s else None
        return None

    diag = BacktestDiagnostics()
    trades = []
    for event in select_percentile_hours(net_series, pct, leg).tolist():
        diag.events += 1
        for key in sorted(by_instrument):
            i = first_at_or_after(key, event)
            if i is None:
                diag.unmatched_entries += 1
                continue
            j = first_at_or_after(key, int(quotes.quote_times[i]) + holding_s)
            if j is None or quotes.quote_times[j] <= quotes.quote_times[i]:
                diag.unmatched_exits += 1
                continue
            entry = _quote(quotes, i)
            if call_price(entry) <= 0:
                diag.zero_price_skips += 1
                continue
            trades.append(trade(entry, _quote(quotes, j), side, costs=costs))
    diag.trades = len(trades)
    return {key: reference_bucket_stats(trades, key, wtl_mode) for key in buckets}, diag


def reference_read_table(path, schema):
    """Read a CSV file one record at a time, like ``ingest.read_table``.

    Each record goes through ``check_row`` as soon as it is read, so the
    first fault met is the one raised: a record's bad field count or a
    faulty value, a ``csv.Error`` or a byte that is not UTF-8. Blank
    records are skipped but counted, so record k after the header is on
    line k + 1. The columns are then stably sorted by the key and a
    repeated key is rejected.
    """
    header = [name for name, _ in schema.columns]
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
                    raise MalformedRow(lineno,
                                       f"expected {len(header)} fields, got {len(fields)}")
                rows.append(check_row(schema, lineno, fields))
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8") from None
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
    columns = [np.array(col, dtype=kind.dtype) for (_, kind), col
               in zip(schema.columns, zip(*rows) if rows else [()] * len(header))]
    order = np.lexsort([columns[j] for j in reversed(schema.key)])
    columns = [col[order] for col in columns]
    repeated = np.logical_and.reduce([columns[j][1:] == columns[j][:-1] for j in schema.key])
    if repeated.any():
        i = int(np.flatnonzero(repeated)[0])
        raise schema.duplicate(", ".join(schema.columns[j][1].format(columns[j][i:i + 1])[0]
                                         for j in schema.key))
    return columns


def reference_align(predictor, response, control=None, horizon=None):
    """Pair predictor(t) (and control(t)) with response(t + horizon) by
    intersecting the timestamps and looking each one up by binary search."""
    if horizon is None:
        horizon = predictor.horizon
    pieces = [predictor, response] + ([control] if control is not None else [])
    for s in pieces:
        if s.horizon != horizon:
            raise HorizonMismatch(f"series at {s.horizon}, expected {horizon}")
    h_s = _seconds(horizon, "horizon")

    t = np.intersect1d(predictor.timestamps, response.timestamps - h_s,
                       assume_unique=True)
    if control is not None:
        t = np.intersect1d(t, control.timestamps, assume_unique=True)
    if len(t) == 0:
        raise EmptyAlignment("no overlapping predictor/response timestamps")

    pred = predictor.values[np.searchsorted(predictor.timestamps, t)]
    resp = response.values[np.searchsorted(response.timestamps, t + h_s)]
    ctrl = None
    if control is not None:
        ctrl = control.values[np.searchsorted(control.timestamps, t)]
    return AlignedSample(timestamps=t, predictor=pred, response=resp,
                         control=ctrl, horizon=horizon)


def reference_black_scholes_call(index, strike, years, sigma):
    """Scalar (price, delta) of a European call under a zero-rate lognormal
    model; at or past expiry, or at zero vol, the intrinsic value."""
    if years <= 0 or sigma <= 0:
        intrinsic = max(index - strike, 0.0)
        return intrinsic, 1.0 if index > strike else 0.0
    sq = sigma * math.sqrt(years)
    d1 = (math.log(index / strike) + 0.5 * sq * sq) / sq
    d2 = d1 - sq
    price = index * float(ndtr(d1)) - strike * float(ndtr(d2))
    return max(price, 0.0), min(max(float(ndtr(d1)), 0.0), 1.0)


def reference_option_chain(cfg, bars, flows):
    """The hourly call chain of ``cfg.chain``, built hour by hour.

    Hour i quotes every expiry in (t, t + lifetime] at the close ending
    hour i and an implied vol set by hour i-1's net inflow. An expiry's
    strikes are fixed at its first quoted hour: the moneyness rungs
    rounded to the strike step, halved until no two distinct rungs share
    a strike. Each hour lists its (strike, expiry) pairs in sorted order.
    """
    spec = cfg.chain
    nsub = 3600 // int(cfg.sub_frequency.total_seconds())
    hour_close = bars.close.reshape(cfg.hours, nsub)[:, -1]
    net = flows.net_usd / 1e6
    expiry_s = int(spec.expiry_every.total_seconds())
    life_s = int(spec.lifetime.total_seconds())
    end = cfg.start + 3600 * cfg.hours
    expiries = range(cfg.start + expiry_s, end + expiry_s + 1, expiry_s)
    strikes_of = {}
    rows = []
    for i in range(1, cfg.hours + 1):
        t = cfg.start + 3600 * i
        index = float(hour_close[i - 1])
        sigma = max(spec.iv_base + spec.iv_flow_beta * float(net[i - 1]), synth.IV_FLOOR)
        instruments = []
        for e in expiries:
            if not t < e <= t + life_s:
                continue
            if e not in strikes_of:
                raw, step = np.array(spec.moneyness) * index, synth.STRIKE_STEP
                rungs = len(np.unique(raw))
                while len(strikes := np.unique(np.round(raw / step) * step)) < rungs:
                    step /= 2
                strikes_of[e] = strikes
            instruments.extend((float(k), e) for k in strikes_of[e])
        for strike, e in sorted(instruments):
            years = (e - t) / (365.0 * 24.0 * 3600.0)
            price, delta = reference_black_scholes_call(index, strike, years, sigma)
            rows.append((t, strike, e, price / index, index, sigma, delta))
    columns = list(zip(*rows)) if rows else [()] * 7
    return QuoteSeries(*(np.array(c, dtype=dtype) for c, dtype in
                         zip(columns, [np.int64, float, np.int64, float, float, float, float])))
