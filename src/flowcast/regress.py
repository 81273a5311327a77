"""Least-squares core and the predictive-regression grid.

``ols_fit`` solves the single- or double-regressor model

    y_{t+h} = b0 + b1 * netinflow_t (+ b2 * y_t) + e_{t+h}

with classical homoskedastic standard errors by default (Newey-West
covariance is available behind ``hac_lags``), by Gram-Schmidt on the
centred columns. It calls no BLAS or LAPACK routine, whose summation order
depends on the CPU's kernel, so a grid's bits are the same on every CPU.
``run_grid`` sweeps (predictor asset -> response asset) pairs, targets,
horizons, and model variants into a heatmap of signed-significance cells,
mirroring the summary-table layout used in the reports.

A cell's stars are those of scipy's Student-t p (``two_sided_p``), but
``significance`` computes p in pure Python and imports scipy only for a p
within a relative ``_P_BAND`` (1e-6) of a star level, so a grid run
normally loads no scipy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: each function imports numpy as it runs
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
TARGETS = (TARGET_RETURN, TARGET_VOLATILITY)
MODELS = (MODEL_SINGLE, MODEL_DOUBLE)

# Strict inequality: a p-value exactly at a level does not earn the star.
_STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))
# Relative band around each star level inside which ``significance`` takes
# scipy's p instead of the pure-Python one. Near the levels the pure p was
# within 1.2e-9 of scipy's up to df 10**7 (1e-11 up to df 10**5, 1e-13 up
# to df 100; 210,000 random draws), so the band leaves a margin of over
# 800x. It is also the normal screen's rounding margin.
_P_BAND = 1e-6
# Largest df for which the pure-Python p was measured against scipy; above
# it the continued fraction's x = df/(df+t^2) rounds towards 1.
_PURE_P_MAX_DF = 10**7
_CF_MAX_TERMS = 1000
_CF_TINY = 1e-300
_LN_SQRT_PI = 0.5 * math.log(math.pi)
_SQRT2 = math.sqrt(2.0)

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
        import numpy as np
        terms = zip(np.atleast_1d(x).tolist(), self.beta[1:].tolist(), strict=True)
        return float(self.beta[0]) + sum(xi * b for xi, b in terms)


def design_matrix(sample: AlignedSample) -> tuple[np.ndarray, np.ndarray]:
    """``X`` = [1, predictor (, control)] column by column, and ``y``. The
    fit does not build it; it is the textbook form of the same model."""
    import numpy as np
    X = np.empty((sample.n, 2 if sample.control is None else 3))
    X[:, 0] = 1.0
    X[:, 1] = sample.predictor
    if sample.control is not None:
        X[:, 2] = sample.control
    return X, np.asarray(sample.response, dtype=np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by ``np.add.reduce``, whose pairwise order is fixed in
    numpy's C source; a BLAS dot sums in the order of the CPU's kernel."""
    import numpy as np
    return float(np.add.reduce(a * b))


def _mean(a: np.ndarray) -> float:
    import numpy as np
    return float(np.add.reduce(a)) / len(a)


def _newey_west_meat(scores: list[np.ndarray], lags: int) -> list[list[float]]:
    """sum_t s_t s_t' plus the Bartlett-weighted lag terms, for the score
    columns ``scores`` (each design column times the residuals)."""
    S = [[_dot(a, b) for b in scores] for a in scores]
    # A lag of n or more pairs no rows; its term would add 0.0.
    for j in range(1, min(lags, len(scores[0]) - 1) + 1):
        # Exact int division: lags + 1.0 overflows past float range.
        w = 1.0 - j / (lags + 1)
        G = [[_dot(a[j:], b[:-j]) for b in scores] for a in scores]
        for a, row in enumerate(S):
            for b in range(len(row)):
                row[b] += w * (G[a][b] + G[b][a])
    return S


def ols_fit(sample: AlignedSample, hac_lags: int | None = None) -> OlsFit:
    """Fit the regression by modified Gram-Schmidt, the intercept removed by
    centring.

    With ``xc = x - xbar`` and ``yc = y - ybar``, ``b1 = sum(xc*yc) /
    sum(xc*xc)``. In the double model the centred control ``cc`` is first
    taken against the predictor: ``cp = cc - r*xc`` with ``r = sum(xc*cc) /
    sum(xc*xc)``; then ``b2 = sum(cp*yc) / sum(cp*cp)`` and ``b1 =
    sum(xc*yc) / sum(xc*xc) - r*b2``. The residuals are built from these, so
    an exact fit gets se 0. (X'X)^-1 comes from the same sums, as
    T^-1 D^-1 (T^-1)' with T the unit upper-triangular factor (xbar, cbar, r)
    and D = (n, sum(xc*xc), sum(cp*cp)). The sample is touched only by numpy
    elementwise ops and ``np.add.reduce``, and the 2x2 or 3x3 algebra is
    done in Python floats, so no BLAS or LAPACK routine runs and the bits do
    not depend on the CPU.

    Raises TooFewObservations when n < k + 2, and RankDeficient when a
    column's diagonal entry of R (|xc| or |cp|) is at most max(n, p)*eps
    times that column's norm.
    """
    import numpy as np
    x = np.asarray(sample.predictor, dtype=np.float64)
    y = np.asarray(sample.response, dtype=np.float64)
    n, p = sample.n, 2 if sample.control is None else 3
    k = p - 1
    if n < k + 2:
        raise TooFewObservations(f"n={n} but need at least {k + 2} rows for k={k}")
    # The rank check compares squares, and takes a column's squared norm
    # from sums already made: |v|^2 = sum((v - vbar)^2) + n*vbar^2.
    tol2 = (max(n, p) * np.finfo(np.float64).eps) ** 2

    xbar = _mean(x)
    xc = x - xbar
    sxx = _dot(xc, xc)
    if sxx <= tol2 * (sxx + n * xbar * xbar):
        raise RankDeficient("design matrix is rank deficient")
    ybar = _mean(y)
    yc = y - ybar
    columns = [x]
    if sample.control is None:
        b1 = _dot(xc, yc) / sxx
        resid = yc - b1 * xc
        beta = [ybar - b1 * xbar, b1]
        xtx_inv = [[1.0 / n + xbar * xbar / sxx, -xbar / sxx],
                   [-xbar / sxx, 1.0 / sxx]]
    else:
        c = np.asarray(sample.control, dtype=np.float64)
        cbar = _mean(c)
        cc = c - cbar
        r = _dot(xc, cc) / sxx
        cp = cc - r * xc
        spp = _dot(cp, cp)
        # sum(cc*cc) = sum(cp*cp) + r^2 * sum(xc*xc)
        if spp <= tol2 * (spp + r * r * sxx + n * cbar * cbar):
            raise RankDeficient("design matrix is rank deficient")
        b2 = _dot(cp, yc) / spp
        b1 = _dot(xc, yc) / sxx - r * b2
        resid = yc - b1 * xc - b2 * cc
        beta = [ybar - b1 * xbar - b2 * cbar, b1, b2]
        # The intercept row of T^-1 is (1, -xbar, -d).
        d = cbar - r * xbar
        v01, v02, v12 = -xbar / sxx + d * r / spp, -d / spp, -r / spp
        xtx_inv = [[1.0 / n + xbar * xbar / sxx + d * d / spp, v01, v02],
                   [v01, 1.0 / sxx + r * r / spp, v12],
                   [v02, v12, 1.0 / spp]]
        columns.append(c)
    sse = _dot(resid, resid)
    dof = n - p
    if hac_lags is None:
        var = [(sse / dof) * xtx_inv[i][i] for i in range(p)]
    else:
        if hac_lags < 0:
            raise InvalidConfig(f"hac_lags must be >= 0, got {hac_lags}")
        S = _newey_west_meat([resid] + [col * resid for col in columns], hac_lags)
        # The diagonal of (X'X)^-1 S (X'X)^-1.
        var = [sum(sum(xtx_inv[i][a] * S[a][b] for a in range(p)) * xtx_inv[b][i]
                   for b in range(p)) for i in range(p)]
    se = np.sqrt(np.maximum(var, 0.0))

    # A zero (or NaN) standard error gives t = 0 for a zero coefficient and
    # +-inf (NaN for a NaN one) otherwise.
    t_stat = np.array([b / s if s > 0 else 0.0 if b == 0 else b * math.inf
                       for b, s in zip(beta, se.tolist())])

    sst = _dot(yc, yc)
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    return OlsFit(beta=np.array(beta), se=se, t_stat=t_stat, r2_adj=r2_adj, n=n)


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


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)). The ``lgamma`` difference cancels as
    ``a`` grows, so from a = 25 on the asymptotic series replaces it (its
    truncation error there is below 3e-16)."""
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - r * (1 / 192 - r * (1 / 640 - r * 17 / 14336))) / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta,
    ``I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * _beta_cf(a, b, x)``, by Lentz's
    method; NaN if it has not converged within ``_CF_MAX_TERMS`` terms. It
    converges fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) <= 2.0**-50:
            return h
    return math.nan


def _pure_two_sided_p(t_stat: float, df: int) -> float:
    """Two-sided Student-t p in pure Python, ``I_x(df/2, 1/2)`` with
    x = df/(df+t^2), for t^2 > 0. Near the star levels it is within 1.2e-9 of
    ``two_sided_p`` (relative) for df up to ``_PURE_P_MAX_DF``; NaN if the
    continued fraction did not converge."""
    t2 = t_stat * t_stat
    a = 0.5 * df
    # ln(x^a (1-x)^(1/2) / B(a, 1/2)) from x's two sides, t^2/df and df/t^2:
    # rounding x itself would cost about 5e-10 relative at df 10**7.
    front = math.exp(_log_gamma_ratio(a) - _LN_SQRT_PI
                     - a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2))
    # x < (a+1)/(a+5/2), the fraction's fast side, is t^2 (df+2) > 3 df.
    if t2 * (df + 2.0) > 3.0 * df:
        return front * _beta_cf(a, 0.5, df / (df + t2)) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, t2 / (df + t2))


def significance(t_stat: float, n: int, k: int) -> str:
    """Map a t-statistic to stars at the 1%/5%/10% two-sided levels.

    Degrees of freedom are n - k - 1; the stricter star requires the
    p-value to be strictly below the level. The stars are those of
    ``two_sided_p``, which imports scipy, but it is called only where the
    pure-Python p could fall on the wrong side of a level: within the
    relative ``_P_BAND`` of one, or for df above ``_PURE_P_MAX_DF``. A t
    whose normal tail clears the 10% level needs neither, since the
    Student-t tail is heavier for every df. NaN gives no star and +-inf
    ``***``.
    """
    df = n - k - 1
    if df < 1:
        raise TooFewObservations(f"need at least 1 degree of freedom, got {df}")
    # NaN fails the comparison too.
    if not math.erfc(abs(t_stat) / _SQRT2) < _STAR_LEVELS[-1][0] * (1.0 + _P_BAND):
        return ""
    p = _pure_two_sided_p(t_stat, df) if df <= _PURE_P_MAX_DF else math.nan
    # A NaN p fails every comparison, so it goes to scipy too.
    if not all(abs(p - level) > level * _P_BAND for level, _ in _STAR_LEVELS):
        p = two_sided_p(t_stat, df)
    for level, stars in _STAR_LEVELS:
        if p < level:
            return stars
    return ""


def classify_sign(beta1: float | None, stars: str) -> str:
    """The sign of a starred, nonzero ``beta1``; otherwise insignificant
    (a failed cell's None ``beta1`` included)."""
    if not stars or not beta1:
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
    """One fitted (pair, target, horizon, model) cell; a cell that could not
    be estimated has ``beta1`` None, no stars and an ``error``."""

    pair: tuple[Asset, Asset]  # (predictor asset, response asset)
    target: str
    horizon: timedelta
    model: str
    beta1: float | None = None
    stars: str = ""
    error: str | None = None

    @property
    def sign(self) -> str:
        return classify_sign(self.beta1, self.stars)


def run_grid(data: MarketData,
             horizons: Sequence[timedelta] = DEFAULT_HORIZONS,
             pairs: Sequence[tuple[Asset, Asset]] = DEFAULT_PAIRS,
             targets: Sequence[str] = TARGETS,
             models: Sequence[str] = MODELS,
             min_obs: int = DEFAULT_MIN_OBS,
             hac_lags: int | None = None) -> list[HeatmapCell]:
    """One cell per (pair, target, horizon, model), in that order; failed
    cells are marked.

    An unknown target or model raises ``InvalidConfig`` before any fit. The
    cells are fitted one horizon at a time: each (asset, horizon) series is
    built once, shared by that horizon's cells that use it and dropped before
    the next horizon, so the series of one horizon at most are held at once.
    A series that fails to build fails again, with the same message, in each
    of its cells.
    """
    for what, given, allowed in (("target", targets, TARGETS), ("model", models, MODELS)):
        for value in given:
            if value not in allowed:
                raise InvalidConfig(f"unknown {what} {value!r}; allowed: {', '.join(allowed)}")

    def inflows(asset: Asset, horizon: timedelta) -> NetInflowSeries:
        if asset not in data.flows:
            raise InvalidConfig(f"no flow data for {asset.value}")
        return net_inflows(data.flows[asset], horizon)

    def response(asset: Asset, target: str, horizon: timedelta) -> ReturnSeries | VolSeries:
        if asset not in data.bars:
            raise InvalidConfig(f"no bar data for {asset.value}")
        if target == TARGET_RETURN:
            return returns(data.bars[asset], horizon)
        return realized_vol(data.bars[asset], horizon)

    def cell(predictor_of, response_of, pair: tuple[Asset, Asset], target: str,
             horizon: timedelta, model: str) -> HeatmapCell:
        try:
            predictor = predictor_of(pair[0], horizon)
            resp = response_of(pair[1], target, horizon)
            sample = align(predictor, resp, control=resp if model == MODEL_DOUBLE else None)
            need = max(min_obs, 4 if model == MODEL_DOUBLE else 3)
            if sample.n < need:
                raise TooFewObservations(f"n={sample.n} below minimum {need}")
            fit = ols_fit(sample, hac_lags=hac_lags)
            return HeatmapCell(pair, target, horizon, model, beta1=float(fit.beta[1]),
                               stars=significance(float(fit.t_stat[1]), fit.n, fit.k))
        except FlowcastError as exc:
            return HeatmapCell(pair, target, horizon, model, error=f"{type(exc).__name__}: {exc}")

    cells = {}
    for h, horizon in enumerate(horizons):
        # This horizon's series only: the last horizon's cache goes with it.
        predictor_of, response_of = functools.cache(inflows), functools.cache(response)
        for p, pair in enumerate(pairs):
            for t, target in enumerate(targets):
                for m, model in enumerate(models):
                    cells[p, t, h, m] = cell(predictor_of, response_of,
                                             pair, target, horizon, model)
    return [cells[key] for key in sorted(cells)]


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


_CELL_VALUES = (("target", TARGETS),
                ("model", MODELS),
                ("stars", ("",) + tuple(stars for _, stars in _STAR_LEVELS)),
                ("sign", (SIGN_POSITIVE, SIGN_NEGATIVE, SIGN_INSIGNIFICANT)))


def grid_from_json(text: str, source: str = "grid") -> list[HeatmapCell]:
    """The cells of a ``grid_to_json`` text. Text that is not JSON, or not a
    list of cells whose fields have the right types and allowed values,
    raises ValidationError naming ``source``; so does a cell that is neither
    fitted (a number ``beta1``, no ``error``, stars only on a beta1 that is
    not NaN) nor failed (an ``error``, beta1 null and no stars), or whose
    sign is not the one ``beta1`` and ``stars`` give."""
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
                error=d.get("error"))
            if len(d["pair"]) != 2:
                raise ValueError(f"pair {d['pair']!r} does not have two members")
            for name, allowed in _CELL_VALUES:
                if d[name] not in allowed:
                    raise ValueError(f"{name} {d[name]!r} is not one of {allowed}")
            # bool is an int, but true is not an hour.
            if type(d["horizon_hours"]) not in (int, float):
                raise TypeError(f"horizon_hours {d['horizon_hours']!r} is not a number")
            if cell.horizon <= timedelta(0):
                raise ValueError(f"horizon_hours {d['horizon_hours']!r} is not a positive duration")
            if not (cell.beta1 is None or type(cell.beta1) in (int, float)):
                raise TypeError(f"beta1 {cell.beta1!r} is not a number")
            if not isinstance(cell.error, (str, type(None))):
                raise TypeError("error must be a string")
            if cell.error is None and cell.beta1 is None:
                raise ValueError("a cell with no error has beta1 null")
            if cell.error is not None and (cell.beta1 is not None or cell.stars):
                raise ValueError(f"a failed cell has beta1 {cell.beta1!r} "
                                 f"and stars {cell.stars!r}")
            if cell.stars and math.isnan(cell.beta1):
                raise ValueError(f"stars {cell.stars!r} on a NaN beta1")
            if d["sign"] != cell.sign:
                raise ValueError(f"sign {d['sign']!r} disagrees with beta1 {cell.beta1!r} "
                                 f"and stars {cell.stars!r}")
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
