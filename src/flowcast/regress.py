"""Least-squares core and the predictive-regression grid.

``ols_fit`` solves the single- or double-regressor model

    y_{t+h} = b0 + b1 * netinflow_t (+ b2 * y_t) + e_{t+h}

with classical homoskedastic standard errors by default (Newey-West
covariance is available behind ``hac_lags``). ``run_grid`` sweeps
(predictor asset -> response asset) pairs, targets, horizons, and model
variants into a heatmap of signed-significance cells, mirroring the
summary-table layout used in the reports.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (FlowcastError, InvalidConfig, RankDeficient, TooFewObservations,
                     ValidationError)
from .ingest import Asset, BarSeries, FlowSeries
from .series import (
    AlignedSample,
    NetInflowSeries,
    ReturnSeries,
    VolSeries,
    align,
    net_inflows,
    realized_vol,
    returns,
)

DEFAULT_HORIZONS = tuple(timedelta(hours=h) for h in (1, 2, 3, 4, 6))
DAILY_WEEKLY_HORIZONS = (timedelta(hours=24), timedelta(hours=168))
DEFAULT_PAIRS = (
    (Asset.USDT, Asset.ETH),
    (Asset.ETH, Asset.ETH),
    (Asset.USDT, Asset.BTC),
    (Asset.BTC, Asset.BTC),
)
TARGET_RETURN = "return"
TARGET_VOLATILITY = "volatility"
MODEL_SINGLE = "single"
MODEL_DOUBLE = "double"

# Strict inequality: a p-value exactly at a level does not earn the star.
_STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"
SIGN_INSIGNIFICANT = "insignificant"

DEFAULT_MIN_OBS = 30


@dataclass
class OlsFit:
    """Coefficients and inference for one fitted regression.

    ``beta[0]`` is the intercept. ``se`` are classical OLS standard errors
    unless the fit was run with HAC lags.
    """

    beta: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray
    r2_adj: float
    n: int

    @property
    def k(self) -> int:
        return len(self.beta) - 1

    def predict(self, x) -> float:
        """Fitted value for one regressor row ``x`` (no intercept column); a
        one-regressor fit also takes ``x`` as a scalar."""
        return float(self.beta[0] + np.atleast_1d(x) @ self.beta[1:])


def design_matrix(sample: AlignedSample) -> tuple[np.ndarray, np.ndarray]:
    cols = [np.ones(sample.n), sample.predictor]
    if sample.control is not None:
        cols.append(sample.control)
    return np.column_stack(cols), np.asarray(sample.response, dtype=np.float64)


def default_hac_lags(n: int) -> int:
    """Common Newey-West truncation rule: floor(4 (n/100)^(2/9))."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def _newey_west_cov(X: np.ndarray, resid: np.ndarray, lags: int) -> np.ndarray:
    xe = X * resid[:, None]
    S = xe.T @ xe
    for j in range(1, lags + 1):
        w = 1.0 - j / (lags + 1.0)
        G = xe[j:].T @ xe[:-j]
        S += w * (G + G.T)
    xtx_inv = np.linalg.inv(X.T @ X)
    return xtx_inv @ S @ xtx_inv


def ols_fit(sample: AlignedSample, hac_lags: int | None = None) -> OlsFit:
    """Fit the regression by the normal equations.

    Raises TooFewObservations when n < k + 2 and RankDeficient when the
    design matrix loses full column rank.
    """
    X, y = design_matrix(sample)
    n, p = X.shape
    k = p - 1
    if n < k + 2:
        raise TooFewObservations(f"n={n} but need at least {k + 2} rows for k={k}")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= sv[0] * max(n, p) * np.finfo(np.float64).eps:
        raise RankDeficient("design matrix is rank deficient")

    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    sse = float(resid @ resid)
    dof = n - p
    if hac_lags is None:
        cov = (sse / dof) * np.linalg.inv(xtx)
    else:
        if hac_lags < 0:
            raise InvalidConfig(f"hac_lags must be >= 0, got {hac_lags}")
        cov = _newey_west_cov(X, resid, hac_lags)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = np.where(se > 0, beta / np.where(se > 0, se, 1.0),
                          np.where(beta == 0, 0.0, np.sign(beta) * np.inf))

    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    return OlsFit(beta=beta, se=se, t_stat=t_stat, r2_adj=r2_adj, n=n)


def two_sided_p(t_stat: float, df: int) -> float:
    """Two-sided Student-t p-value."""
    if df < 1:
        raise TooFewObservations(f"need at least 1 degree of freedom, got {df}")
    if math.isinf(t_stat):
        return 0.0
    # Deferred: importing scipy costs most of a short command's run time.
    from scipy.special import stdtr

    # scipy.stats.t.sf(x, df) computes stdtr(df, -x); calling it directly
    # gives the same bits without the distribution's per-call overhead.
    return 2.0 * float(stdtr(df, -abs(t_stat)))


def significance(t_stat: float, n: int, k: int) -> str:
    """Map a t-statistic to stars at the 1%/5%/10% two-sided levels.

    Degrees of freedom are n - k - 1; the stricter star requires the
    p-value to be strictly below the level.
    """
    p = two_sided_p(t_stat, n - k - 1)
    for level, stars in _STAR_LEVELS:
        if p < level:
            return stars
    return ""


def classify_sign(beta1: float, stars: str) -> str:
    if not stars or beta1 == 0:
        return SIGN_INSIGNIFICANT
    return SIGN_POSITIVE if beta1 > 0 else SIGN_NEGATIVE


# ---------------------------------------------------------------------------
# Heatmap grid
# ---------------------------------------------------------------------------

@dataclass
class MarketData:
    """Inputs for a grid run: hourly flows per asset, bars per priced asset."""

    flows: Mapping[Asset, FlowSeries]
    bars: Mapping[Asset, BarSeries]


@dataclass
class HeatmapCell:
    pair: tuple[Asset, Asset]  # (predictor asset, response asset)
    target: str
    horizon: timedelta
    model: str
    beta1: float | None
    stars: str
    sign: str
    error: str | None = None


def _fit_cell(predictor: NetInflowSeries, response: ReturnSeries | VolSeries,
              pair: tuple[Asset, Asset], target: str, horizon: timedelta, model: str,
              min_obs: int, hac_lags: int | None) -> HeatmapCell:
    control = response if model == MODEL_DOUBLE else None
    sample = align(predictor, response, control=control, horizon=horizon)
    k = 2 if model == MODEL_DOUBLE else 1
    if sample.n < max(min_obs, k + 2):
        raise TooFewObservations(f"n={sample.n} below minimum {max(min_obs, k + 2)}")
    fit = ols_fit(sample, hac_lags=hac_lags)
    beta1 = float(fit.beta[1])
    stars = significance(float(fit.t_stat[1]), fit.n, fit.k)
    return HeatmapCell(pair=pair, target=target, horizon=horizon, model=model,
                       beta1=beta1, stars=stars, sign=classify_sign(beta1, stars))


def run_grid(data: MarketData,
             horizons: Sequence[timedelta] = DEFAULT_HORIZONS,
             pairs: Sequence[tuple[Asset, Asset]] = DEFAULT_PAIRS,
             targets: Sequence[str] = (TARGET_RETURN, TARGET_VOLATILITY),
             models: Sequence[str] = (MODEL_SINGLE, MODEL_DOUBLE),
             min_obs: int = DEFAULT_MIN_OBS,
             hac_lags: int | None = None) -> list[HeatmapCell]:
    """One cell per (pair, target, horizon, model); failed cells are marked.

    Each (asset, horizon) series is built once and shared by the cells that
    use it; one that fails to build fails again, with the same message, in
    each of its cells.
    """

    @functools.cache
    def inflows(asset: Asset, horizon: timedelta) -> NetInflowSeries:
        if asset not in data.flows:
            raise InvalidConfig(f"no flow data for {asset.value}")
        return net_inflows(data.flows[asset], horizon)

    @functools.cache
    def response(asset: Asset, target: str, horizon: timedelta) -> ReturnSeries | VolSeries:
        if asset not in data.bars:
            raise InvalidConfig(f"no bar data for {asset.value}")
        if target == TARGET_RETURN:
            return returns(data.bars[asset], horizon)
        if target == TARGET_VOLATILITY:
            return realized_vol(data.bars[asset], horizon)
        raise InvalidConfig(f"unknown target {target!r}")

    cells = []
    for pair in pairs:
        for target in targets:
            for horizon in horizons:
                for model in models:
                    try:
                        cells.append(_fit_cell(inflows(pair[0], horizon),
                                               response(pair[1], target, horizon),
                                               pair, target, horizon, model,
                                               min_obs, hac_lags))
                    except FlowcastError as exc:
                        cells.append(HeatmapCell(
                            pair=pair, target=target, horizon=horizon, model=model,
                            beta1=None, stars="", sign=SIGN_INSIGNIFICANT,
                            error=f"{type(exc).__name__}: {exc}"))
    return cells


def daily_weekly_grid(data: MarketData,
                      pairs: Sequence[tuple[Asset, Asset]] = DEFAULT_PAIRS,
                      models: Sequence[str] = (MODEL_SINGLE, MODEL_DOUBLE),
                      min_obs: int = DEFAULT_MIN_OBS,
                      hac_lags: int | None = None) -> list[HeatmapCell]:
    """Volatility-forecasting cells at the daily and weekly horizons."""
    return run_grid(data, horizons=DAILY_WEEKLY_HORIZONS, pairs=pairs,
                    targets=(TARGET_VOLATILITY,), models=models,
                    min_obs=min_obs, hac_lags=hac_lags)


def split_evaluate(sample: AlignedSample,
                   split_fraction: float) -> tuple[OlsFit, float]:
    """Chronological split: fit on the head, score R^2 on the tail.

    Out-of-sample R^2 is 1 - SSE_pred/SST_test on the later segment, using
    coefficients estimated on the earlier one.
    """
    if not 0.0 < split_fraction < 1.0:
        raise InvalidConfig(f"split_fraction must be in (0, 1), got {split_fraction}")
    n = sample.n
    n_train = int(math.floor(split_fraction * n))
    n_test = n - n_train
    k = 1 if sample.control is None else 2
    if n_train < k + 2 or n_test < k + 2:
        raise TooFewObservations(
            f"split {n_train}/{n_test} leaves a segment below {k + 2} rows")

    def _slice(lo, hi):
        ctrl = sample.control[lo:hi] if sample.control is not None else None
        return AlignedSample(timestamps=sample.timestamps[lo:hi],
                             predictor=sample.predictor[lo:hi],
                             response=sample.response[lo:hi],
                             control=ctrl, horizon=sample.horizon)

    train, test = _slice(0, n_train), _slice(n_train, n)
    fit = ols_fit(train)
    X_test, y_test = design_matrix(test)
    pred = X_test @ fit.beta
    sse = float(np.sum((y_test - pred) ** 2))
    sst = float(np.sum((y_test - y_test.mean()) ** 2))
    if sst > 0:
        oos_r2 = 1.0 - sse / sst
    else:
        oos_r2 = 1.0 if sse == 0 else float("nan")
    return fit, oos_r2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _horizon_hours(horizon: timedelta) -> int | float:
    hours = horizon.total_seconds() / 3600.0
    return int(hours) if hours == int(hours) else hours


def cell_to_dict(cell: HeatmapCell) -> dict:
    d = {
        "pair": [cell.pair[0].value, cell.pair[1].value],
        "target": cell.target,
        "horizon_hours": _horizon_hours(cell.horizon),
        "model": cell.model,
        "beta1": cell.beta1,
        "stars": cell.stars,
        "sign": cell.sign,
    }
    if cell.error is not None:
        d["error"] = cell.error
    return d


def grid_to_json(cells: Iterable[HeatmapCell]) -> str:
    return json.dumps([cell_to_dict(c) for c in cells], indent=2) + "\n"


_CELL_VALUES = (("target", (TARGET_RETURN, TARGET_VOLATILITY)),
                ("model", (MODEL_SINGLE, MODEL_DOUBLE)),
                ("stars", ("",) + tuple(stars for _, stars in _STAR_LEVELS)),
                ("sign", (SIGN_POSITIVE, SIGN_NEGATIVE, SIGN_INSIGNIFICANT)))


def grid_from_json(text: str, source: str = "grid") -> list[HeatmapCell]:
    """The cells of a ``grid_to_json`` text. Text that is not JSON, or not a
    list of cells whose fields have the right types and allowed values,
    raises ValidationError naming ``source``."""
    cells = []
    try:
        for d in json.loads(text):
            cell = HeatmapCell(
                pair=(Asset(d["pair"][0]), Asset(d["pair"][1])),
                target=d["target"],
                horizon=timedelta(hours=d["horizon_hours"]),
                model=d["model"],
                beta1=d["beta1"],
                stars=d["stars"],
                sign=d["sign"],
                error=d.get("error"))
            if len(d["pair"]) != 2:
                raise ValueError(f"pair {d['pair']!r} does not have two members")
            for name, allowed in _CELL_VALUES:
                if d[name] not in allowed:
                    raise ValueError(f"{name} {d[name]!r} is not one of {allowed}")
            if cell.horizon <= timedelta(0):
                raise ValueError(f"horizon_hours {d['horizon_hours']!r} is not a positive duration")
            if not (cell.beta1 is None or type(cell.beta1) in (int, float)):
                raise TypeError(f"beta1 {cell.beta1!r} is not a number")
            if not isinstance(cell.error, (str, type(None))):
                raise TypeError("error must be a string")
            cells.append(cell)
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError) as exc:
        raise ValidationError(f"{source}: not a heatmap grid ({exc})") from None
    return cells


def grid_to_tsv(cells: Sequence[HeatmapCell]) -> str:
    """Render rows = horizon x model, columns = pair x target."""
    col_keys: list[tuple[tuple[Asset, Asset], str]] = []
    row_keys: list[tuple[timedelta, str]] = []
    for c in cells:
        if (c.pair, c.target) not in col_keys:
            col_keys.append((c.pair, c.target))
        if (c.horizon, c.model) not in row_keys:
            row_keys.append((c.horizon, c.model))
    by_key = {(c.pair, c.target, c.horizon, c.model): c for c in cells}

    header = ["horizon", "model"] + [
        f"{p[0].value}->{p[1].value}:{t}" for p, t in col_keys]
    lines = ["\t".join(header)]
    for horizon, model in row_keys:
        row = [f"{_horizon_hours(horizon)}h", model]
        for pair, target in col_keys:
            cell = by_key.get((pair, target, horizon, model))
            if cell is None:
                row.append("")
            elif cell.error is not None:
                row.append(f"ERR:{cell.error.split(':', 1)[0]}")
            else:
                row.append(f"{cell.beta1!r}{cell.stars}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
