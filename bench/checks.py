"""Correctness checks on flowcast's outputs, computed apart from flowcast.

Every expected value is derived from the input CSVs with numpy and the
standard library; this module never imports flowcast and never compares
against a stored copy of an earlier output. A check raises ``CheckFailed``
naming the first value that disagrees.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

BAR_SECONDS = 300
BARS_PER_HOUR = 3600 // BAR_SECONDS
USD_PER_MUSD = 1e6
MIN_OBS = 30

# OLS slopes and summed trade returns are computed here in another order of
# floating-point operations than in the program; they must agree to this
# relative tolerance (sums of returns, which can cancel to near zero, also
# within ABS_TOL). Counts, ratios of counts and timestamps must be equal.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# The planted one-hour cells of the default synth plants, as (predictor,
# response, target, model) -> sign. They must carry *** on large datasets.
PLANTED_CELLS = {
    ("USDT", "ETH", "return", "single"): "positive",
    ("USDT", "ETH", "return", "double"): "positive",
    ("ETH", "ETH", "return", "single"): "negative",
    ("ETH", "ETH", "return", "double"): "negative",
    ("USDT", "BTC", "return", "single"): "positive",
    ("USDT", "BTC", "return", "double"): "positive",
    ("BTC", "BTC", "volatility", "single"): "negative",
}

# Null-phase starred share: 10% nominal, +/- 3 percentage points.
NULL_SHARE_RANGE = (0.07, 0.13)


class CheckFailed(Exception):
    """An output disagrees with the value computed apart from the program."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def epochs(texts) -> np.ndarray:
    """``YYYY-MM-DDTHH:MM:SSZ`` strings to epoch seconds."""
    return np.array([t.rstrip("Z") for t in texts], dtype="datetime64[s]").astype(np.int64)


def iso(epoch: int) -> str:
    return f"{np.datetime64(int(epoch), 's')}Z"


def data_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in a directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class Inputs:
    """The synth CSVs of one dataset, parsed once, in the checks' own code."""

    def __init__(self, data_dir: Path):
        self.dir = Path(data_dir)
        self._parsed: dict = {}

    @cached_property
    def flow_rows(self) -> list[list[str]]:
        return read_csv(self.dir / "flows.csv")[1]

    def hourly_net(self, asset: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted hour timestamps, net inflow in US$M) for one asset."""
        if ("flows", asset) not in self._parsed:
            self._parsed["flows", asset] = self._hourly_net(asset)
        return self._parsed["flows", asset]

    def _hourly_net(self, asset: str) -> tuple[np.ndarray, np.ndarray]:
        rows = [r for r in self.flow_rows if r[1] == asset]
        ts = epochs([r[0] for r in rows])
        net = np.array([float(r[2]) - float(r[3]) for r in rows]) / USD_PER_MUSD
        order = np.argsort(ts, kind="stable")
        return ts[order], net[order]

    def bars(self, asset: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted bar open timestamps, closes) from bars_<asset>.csv."""
        if ("bars", asset) not in self._parsed:
            self._parsed["bars", asset] = self._bars(asset)
        return self._parsed["bars", asset]

    def _bars(self, asset: str) -> tuple[np.ndarray, np.ndarray]:
        rows = read_csv(self.dir / f"bars_{asset.lower()}.csv")[1]
        ts = epochs([r[0] for r in rows])
        closes = np.array([float(r[4]) for r in rows])
        order = np.argsort(ts, kind="stable")
        return ts[order], closes[order]

    @cached_property
    def quotes(self) -> dict[str, np.ndarray]:
        rows = read_csv(self.dir / "options.csv")[1]
        cols = list(zip(*rows))
        q = {"time": epochs(cols[0]), "strike": np.array(cols[1], dtype=float),
             "expiry": epochs(cols[2]), "price": np.array(cols[3], dtype=float),
             "index": np.array(cols[4], dtype=float),
             "iv": np.array(cols[5], dtype=float), "delta": np.array(cols[6], dtype=float)}
        order = np.argsort(q["time"], kind="stable")
        return {k: v[order] for k, v in q.items()}


# ---------------------------------------------------------------------------
# setup and ingest-check
# ---------------------------------------------------------------------------

def check_setup(data_dir: Path, hours: int) -> None:
    """Row counts: 3 x hours flow rows, 12 x hours bars per asset."""
    expected = {"flows.csv": 3 * hours, "bars_eth.csv": BARS_PER_HOUR * hours,
                "bars_btc.csv": BARS_PER_HOUR * hours}
    for name, rows in expected.items():
        got = data_lines(Path(data_dir) / name)
        require(got == rows, f"{name}: {got} rows, expected {rows}")


def check_ingest(stdout: str, inputs: Inputs) -> None:
    """ingest-check's summary lines against counts made from the files."""
    expected = []
    assets = sorted({r[1] for r in inputs.flow_rows})
    for asset in assets:
        ts, _ = inputs.hourly_net(asset)
        expected.append(f"flows {asset}: {len(ts)} rows, {iso(ts[0])} .. {iso(ts[-1])}")
    bar_ts, _ = inputs.bars("ETH")
    gaps = (bar_ts[-1] - bar_ts[0]) // BAR_SECONDS + 1 - len(np.unique(bar_ts))
    expected.append(f"bars: {data_lines(inputs.dir / 'bars_eth.csv')} rows, {gaps} gap(s)")
    q = inputs.quotes
    instruments = len(set(zip(q["strike"].tolist(), q["expiry"].tolist())))
    expected.append(f"options: {data_lines(inputs.dir / 'options.csv')} quotes, "
                    f"{instruments} instruments")
    got = stdout.splitlines()
    require(got == expected, f"ingest-check printed {got}, expected {expected}")


# ---------------------------------------------------------------------------
# regress and report
# ---------------------------------------------------------------------------

def _predictor(ts: np.ndarray, net: np.ndarray, h_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Epoch-anchored full buckets of h_s seconds and their summed net inflow."""
    ids = ts // h_s
    uniq, first, counts = np.unique(ids, return_index=True, return_counts=True)
    full = counts == h_s // 3600
    sums = np.array([net[i:i + c].sum() for i, c in zip(first[full], counts[full])])
    return uniq[full] * h_s, sums


def _response(ts: np.ndarray, closes: np.ndarray, h_s: int,
              target: str) -> tuple[np.ndarray, np.ndarray]:
    """Forward return or sub-bar return std over [t, t+h) at each covered t.

    The price at instant t is the close of the bar that ends at t, so a
    window needs every bar from t-5m to t+h-5m.
    """
    nsub = h_s // BAR_SECONDS
    g0 = int(ts[0])
    dense = np.full((int(ts[-1]) - g0) // BAR_SECONDS + 1, np.nan)
    dense[(ts - g0) // BAR_SECONDS] = closes
    t = np.arange(-(-g0 // h_s) * h_s, int(ts[-1]) + BAR_SECONDS, h_s, dtype=np.int64)
    a = (t - BAR_SECONDS - g0) // BAR_SECONDS
    t, a = t[(a >= 0) & (a + nsub < len(dense))], a[(a >= 0) & (a + nsub < len(dense))]
    window = dense[a[:, None] + np.arange(nsub + 1)]
    ok = ~np.isnan(window).any(axis=1)
    t, window = t[ok], window[ok]
    if target == "return":
        return t, window[:, -1] / window[:, 0] - 1.0
    sub = window[:, 1:] / window[:, :-1] - 1.0
    return t, sub.std(axis=1, ddof=1)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return math.fsum(dx * dy) / math.fsum(dx * dx)


def check_planted(cells: list[dict]) -> None:
    """Every planted one-hour cell carries its planted sign with ***."""
    by_key = {(c["pair"][0], c["pair"][1], c["target"], c["model"]): c
              for c in cells if c["horizon_hours"] == 1}
    for key, sign in PLANTED_CELLS.items():
        cell = by_key.get(key)
        require(cell is not None and cell.get("error") is None
                and cell["sign"] == sign and cell["stars"] == "***",
                f"planted cell {key} not recovered as {sign}***: {cell}")


def check_regress(out_dir: Path, inputs: Inputs, planted: bool) -> None:
    """grid.json and grid_daily_weekly.json against slopes and row counts
    computed from the CSVs: 1h single-model slopes match, a cell fails
    exactly when its horizon leaves fewer than MIN_OBS aligned rows, and
    (on large datasets) the planted cells are recovered."""
    grids = {"grid.json": 80, "grid_daily_weekly.json": 16}
    cells = []
    for name, count in grids.items():
        with open(Path(out_dir) / name, encoding="utf-8") as fh:
            part = json.load(fh)
        require(len(part) == count, f"{name}: {len(part)} cells, expected {count}")
        cells += part
    series: dict = {}
    for cell in cells:
        pred_asset, resp_asset = cell["pair"]
        h_s = int(cell["horizon_hours"] * 3600)
        k = 2 if cell["model"] == "double" else 1
        if (pred_asset, h_s) not in series:
            series[pred_asset, h_s] = _predictor(*inputs.hourly_net(pred_asset), h_s)
        if (resp_asset, cell["target"], h_s) not in series:
            series[resp_asset, cell["target"], h_s] = _response(
                *inputs.bars(resp_asset), h_s, cell["target"])
        pt, pv = series[pred_asset, h_s]
        rt, rv = series[resp_asset, cell["target"], h_s]
        rows = np.intersect1d(pt, rt - h_s)
        if k == 2:
            rows = np.intersect1d(rows, rt)
        label = (f"{pred_asset}->{resp_asset} {cell['target']} "
                 f"{cell['horizon_hours']}h {cell['model']}")
        should_fail = len(rows) < max(MIN_OBS, k + 2)
        require((cell.get("error") is not None) == should_fail,
                f"{label}: error={cell.get('error')!r} with {len(rows)} aligned rows")
        if h_s == 3600 and k == 1:
            x = pv[np.searchsorted(pt, rows)]
            y = rv[np.searchsorted(rt, rows + h_s)]
            expected = _slope(x, y)
            require(close(cell["beta1"], expected),
                    f"{label}: beta1 {cell['beta1']!r}, slope from the CSVs {expected!r}")
    if planted:
        check_planted(cells)


def check_report(report_tsv: Path, regress_tsv: Path) -> None:
    """report re-renders grid.json into the bytes regress wrote."""
    require(Path(report_tsv).read_bytes() == Path(regress_tsv).read_bytes(),
            f"{report_tsv} differs from {regress_tsv}")


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

# The arguments of the benchmark's events command: --asset ETH and the
# defaults --k 10, --window-pre-hours 72, --window-post-hours 48.
EVENTS_ASSET = "ETH"
EVENTS_K = 10
WINDOW_PRE_HOURS, WINDOW_POST_HOURS = 72, 48


def check_events(out_dir: Path, inputs: Inputs) -> None:
    """events.csv is the per-year top-k sort of hourly net inflow (earlier
    hour first on ties); a case window is written exactly when its span is
    covered, and its tracks are the hourly net inflow and hour-closing bar."""
    out_dir = Path(out_dir)
    asset = EVENTS_ASSET
    ts, net = inputs.hourly_net(asset)
    years = ts.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970
    expected = []
    for year in sorted(set(years.tolist())):
        idx = np.flatnonzero(years == year).tolist()
        top = sorted(idx, key=lambda i: (-net[i], ts[i]))[:EVENTS_K]
        expected += [(int(ts[i]), float(net[i]), year, rank) for rank, i in enumerate(top, 1)]
    header, rows = read_csv(out_dir / "events.csv")
    require(len(rows) == len(expected), f"events.csv: {len(rows)} rows, expected {len(expected)}")
    for row, (t, value, year, rank) in zip(rows, expected):
        require(row[0] == asset and row[1] == iso(t) and close(float(row[2]), value)
                and int(row[3]) == year and int(row[4]) == rank,
                f"events.csv row {row}, expected {[asset, iso(t), value, year, rank]}")

    hour_net = dict(zip(ts.tolist(), net.tolist()))
    bar_ts, bar_close = inputs.bars(asset)
    bar_close_at = dict(zip(bar_ts.tolist(), bar_close.tolist()))
    for i, (t, *_) in enumerate(expected, start=1):
        grid = range(t - WINDOW_PRE_HOURS * 3600, t + WINDOW_POST_HOURS * 3600 + 1, 3600)
        closes = [bar_close_at.get(h + 3600 - BAR_SECONDS) for h in grid]
        covered = all(h in hour_net for h in grid) and None not in closes
        flows_path = out_dir / f"window_{i:02d}_flows.csv"
        prices_path = out_dir / f"window_{i:02d}_prices.csv"
        require(flows_path.exists() == covered and prices_path.exists() == covered,
                f"window {i}: written={flows_path.exists()}, span covered={covered}")
        if not covered:
            continue
        _, flow_rows = read_csv(flows_path)
        _, price_rows = read_csv(prices_path)
        require([r[0] for r in flow_rows] == [iso(h) for h in grid]
                and [r[0] for r in price_rows] == [iso(h) for h in grid],
                f"window {i}: timestamps differ from the hourly span")
        for h, fr, pr, c in zip(grid, flow_rows, price_rows, closes):
            require(close(float(fr[1]), hour_net[h]) and close(float(pr[1]), c),
                    f"window {i} at {iso(h)}: ({fr[1]}, {pr[1]}), expected "
                    f"({hour_net[h]!r}, {c!r})")


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

# The backtest command's defaults, which the benchmark runs: ETH flows, the
# top and bottom 10% legs, sell call, 1 h hold, and this cost model.
BACKTEST_ASSET = "ETH"
PCT = 0.10
HOLD_S = 3600
PREMIUM_RATE, HEDGE_RATE, HALF_SPREAD, SLIPPAGE = 0.0003, 0.0005, 0.0005, 0.0
MARGIN = 0.3
ENTRY_TOLERANCE_S = 1800
IV_FLOORS = (1.0, 2.0)
OTM_BANDS = ((None, 0.01, "otm<1%"), (0.01, 0.03, "1%<=otm<3%"),
             (0.03, 0.05, "3%<=otm<5%"), (0.05, 0.10, "5%<=otm<10%"))


def _report_rows(leg: str) -> list[tuple[str, float | None, float | None, float | None]]:
    """(label, iv floor, otm low, otm high) of the standard report layout."""
    tag = f"{leg}{PCT:.0%}"
    rows = [(f"{tag},original", None, None, None)]
    rows += [(f"{tag},iv>={iv}", iv, None, None) for iv in IV_FLOORS]
    rows += [(f"{tag},{name}", None, lo, hi) for lo, hi, name in OTM_BANDS]
    rows += [(f"{tag},iv>={iv},{name}", iv, lo, hi)
             for iv in IV_FLOORS for lo, hi, name in OTM_BANDS]
    return rows


def backtest_trades(inputs: Inputs, leg: str) -> list[tuple[float, float, float]]:
    """Sell-call trades of one percentile leg as (entry iv, moneyness, net return).

    On each selected hour every instrument quoted within the entry
    tolerance opens one trade at its first such quote; the exit is the
    instrument's first quote at or after entry + hold, within the same
    tolerance.
    """
    ts, net = inputs.hourly_net(BACKTEST_ASSET)
    if leg == "top":
        events = ts[net >= np.quantile(net, 1.0 - PCT)]
    else:
        events = ts[net <= np.quantile(net, PCT)]
    q = inputs.quotes
    qt = q["time"]
    keys = list(zip(q["strike"].tolist(), q["expiry"].tolist()))
    times_of: dict = {}
    for j, key in enumerate(keys):
        times, rows = times_of.setdefault(key, ([], []))
        times.append(int(qt[j]))
        rows.append(j)
    trades = []
    for e in events.tolist():
        lo = np.searchsorted(qt, e, side="left")
        hi = np.searchsorted(qt, e + ENTRY_TOLERANCE_S, side="right")
        seen = set()
        for j in range(lo, hi):
            if keys[j] in seen:
                continue
            seen.add(keys[j])
            times, rows = times_of[keys[j]]
            want = int(qt[j]) + HOLD_S
            i = bisect.bisect_left(times, want)
            if i == len(times) or times[i] > want + ENTRY_TOLERANCE_S:
                continue
            x = rows[i]
            p_entry = q["price"][j] * q["index"][j]
            if p_entry <= 0:
                continue
            index = q["index"][j]
            delta = q["delta"][j]
            pnl = (p_entry - q["price"][x] * q["index"][x]) + (q["index"][x] - index) * delta
            rate = PREMIUM_RATE + HEDGE_RATE * delta + HALF_SPREAD + SLIPPAGE
            r_net = (pnl - rate * index) / ((MARGIN + delta) * index)
            trades.append((float(q["iv"][j]), float((q["strike"][j] - index) / index),
                           float(r_net)))
    return trades


def check_backtest(report_tsv: Path, inputs: Inputs) -> None:
    """Each report.tsv row against the join and cost model above: trade
    counts, win rates and win/loss counts exactly, summed returns within
    REL_TOL."""
    _, rows = read_tsv(report_tsv)
    expected = []
    for leg in ("top", "bottom"):
        trades = backtest_trades(inputs, leg)
        for label, iv_min, lo, hi in _report_rows(leg):
            sel = [r for iv, m, r in trades
                   if (iv_min is None or iv >= iv_min)
                   and (lo is None or m >= lo) and (hi is None or m < hi)]
            wins = sum(r > 0 for r in sel)
            total_net = math.fsum(sel)
            expected.append((label, len(sel), wins, total_net))
    require(len(rows) == len(expected), f"report.tsv: {len(rows)} rows, expected {len(expected)}")
    for row, (label, total, wins, total_net) in zip(rows, expected):
        losses = total - wins
        ok = (row[0] == label and int(row[2]) == total
              and close(float(row[5]), total_net, ABS_TOL))
        if total == 0:
            ok = ok and row[1] == row[3] == row[4] == "N/A"
        else:
            ok = (ok and float(row[1]) == wins / total
                  and row[3] == ("N/A" if losses == 0 else repr(wins / losses))
                  and close(float(row[4]), total_net / total, ABS_TOL))
        require(ok, f"report.tsv row {row}, expected {label}: {total} trades, "
                    f"{wins} wins, summed net return {total_net!r}")


# ---------------------------------------------------------------------------
# study phases and determinism
# ---------------------------------------------------------------------------

def check_null_share(starred: int, total: int) -> None:
    """On no-relation data about 10% of cells are starred at the 10% level."""
    lo, hi = NULL_SHARE_RANGE
    require(total > 0 and lo <= starred / total <= hi,
            f"null phase starred {starred} of {total} cells, outside {lo:.0%}..{hi:.0%}")


def check_same_bytes(what: str, first: dict[str, str], again: dict[str, str]) -> None:
    """A repeated command wrote the same files with the same bytes."""
    changed = sorted(n for n in first.keys() | again.keys() if first.get(n) != again.get(n))
    require(not changed, f"{what}: re-run changed {changed}")
