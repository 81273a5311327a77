import itertools
import math
import time
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erfcinv, stdtrit

import oracles
from conftest import T0
from flowcast import errors, regress
from flowcast.ingest import Asset, BarSeries, FlowSeries
from flowcast.regress import (
    DEFAULT_HORIZONS,
    DEFAULT_PAIRS,
    MODELS,
    MODEL_DOUBLE,
    MODEL_SINGLE,
    DAILY_WEEKLY_HORIZONS,
    TARGET_VOLATILITY,
    TARGETS,
    MarketData,
    design_matrix,
    grid_from_json,
    grid_to_json,
    grid_to_tsv,
    ols_fit,
    run_grid,
    significance,
    two_sided_p,
)
from flowcast.series import AlignedSample
from flowcast.synth import GridPlants, SynthConfig, gen_flows_and_prices, gen_market

H1 = timedelta(hours=1)


def sample_from(x, y, control=None):
    ts = T0 + 3600 * np.arange(len(x), dtype=np.int64)
    ctrl = None if control is None else np.asarray(control, dtype=np.float64)
    return AlignedSample(timestamps=ts, predictor=np.asarray(x, dtype=np.float64),
                         response=np.asarray(y, dtype=np.float64),
                         control=ctrl, horizon=H1)


# ---------------------------------------------------------------------------
# ols_fit
# ---------------------------------------------------------------------------

def test_constant_response(rng):
    x = rng.normal(size=40)
    fit = ols_fit(sample_from(x, np.full(40, 3.0)))
    assert fit.beta[0] == pytest.approx(3.0, abs=1e-12)
    assert fit.beta[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.r2_adj <= 0.0


def test_exact_line():
    x = np.linspace(-2, 3, 50)
    fit = ols_fit(sample_from(x, 2.0 * x + 1.0))
    assert fit.beta[0] == pytest.approx(1.0, rel=1e-12)
    assert fit.beta[1] == pytest.approx(2.0, rel=1e-12)
    X, y = design_matrix(sample_from(x, 2.0 * x + 1.0))
    np.testing.assert_allclose(X @ fit.beta, y, rtol=0, atol=1e-12)


def test_matches_normal_equation_oracle(rng):
    x1 = rng.normal(size=200)
    x2 = rng.normal(size=200)
    y = 0.5 - 1.2 * x1 + 0.3 * x2 + rng.normal(size=200)
    sample = sample_from(x1, y, control=x2)
    fit = ols_fit(sample)
    X, _ = design_matrix(sample)
    beta_ref, se_ref, r2_adj_ref = oracles.ols_reference(X, y)
    np.testing.assert_allclose(fit.beta, beta_ref, rtol=1e-10)
    np.testing.assert_allclose(fit.se, se_ref, rtol=1e-10)
    assert fit.r2_adj == pytest.approx(r2_adj_ref, rel=1e-10)
    np.testing.assert_allclose(fit.t_stat, np.array(beta_ref) / np.array(se_ref),
                               rtol=1e-9)


def test_predictor_scaling_equivariance(rng):
    x = rng.normal(size=300)
    y = 0.1 + 0.7 * x + rng.normal(size=300)
    base = ols_fit(sample_from(x, y))
    for c in (10.0, 1e6, 1e-4):
        scaled = ols_fit(sample_from(c * x, y))
        assert scaled.beta[1] * c == pytest.approx(base.beta[1], rel=1e-10)
        assert scaled.t_stat[1] == pytest.approx(base.t_stat[1], rel=1e-10)
        assert scaled.r2_adj == pytest.approx(base.r2_adj, rel=1e-10)


def test_control_never_increases_sse(rng):
    for _ in range(20):
        x = rng.normal(size=80)
        ctrl = rng.normal(size=80)
        y = 0.2 * x + rng.normal(size=80)
        single = ols_fit(sample_from(x, y))
        double = ols_fit(sample_from(x, y, control=ctrl))

        def sse(fit, sample):
            X, yy = design_matrix(sample)
            r = yy - X @ fit.beta
            return float(r @ r)

        assert (sse(double, sample_from(x, y, control=ctrl))
                <= sse(single, sample_from(x, y)) + 1e-12)


def test_too_few_observations():
    with pytest.raises(errors.TooFewObservations):
        ols_fit(sample_from([1.0, 2.0], [1.0, 2.0]))


def test_rank_deficient_on_constant_predictor():
    with pytest.raises(errors.RankDeficient):
        ols_fit(sample_from(np.full(50, 2.5), np.arange(50.0)))


@pytest.mark.parametrize("case", ["control-is-2x", "constant-control", "zero-predictor"])
def test_rank_deficient_double_model(rng, case):
    # R's diagonal for the predictor or the control is 0, or within rounding
    # of 0 for a control of 0.1, whose mean is not exact.
    x, other = rng.normal(size=50), rng.normal(size=50)
    x, control = {"control-is-2x": (x, 2.0 * x),
                  "constant-control": (x, np.full(50, 0.1)),
                  "zero-predictor": (np.zeros(50), other)}[case]
    with pytest.raises(errors.RankDeficient):
        ols_fit(sample_from(x, x + other, control=control))


@pytest.mark.parametrize("call,error,message", [
    (lambda x, y: ols_fit(sample_from(x, y), hac_lags=-1),
     errors.InvalidConfig, "hac_lags must be >= 0, got -1"),
    (lambda x, y: two_sided_p(2.0, 0),
     errors.TooFewObservations, "need at least 1 degree of freedom, got 0"),
], ids=["negative-hac-lags", "two-sided-p-no-degree-of-freedom"])
def test_fit_refuses_a_bad_argument(rng, call, error, message):
    x = rng.normal(size=50)
    with pytest.raises(error) as exc:
        call(x, x + rng.normal(size=50))
    assert str(exc.value) == message


def test_hac_matches_double_loop_oracle(rng):
    x = rng.normal(size=60)
    e = rng.normal(size=60)
    y = 0.3 * x + e + 0.5 * np.roll(e, 1)  # serially correlated residuals
    sample = sample_from(x, y)
    lags = 3
    fit = ols_fit(sample, hac_lags=lags)
    X, yy = design_matrix(sample)
    beta_ref, _, _ = oracles.ols_reference(X, yy)
    resid = yy - X @ np.array(beta_ref)
    cov_ref = oracles.newey_west_reference(X, resid, lags)
    np.testing.assert_allclose(fit.se, np.sqrt(np.diag(cov_ref)), rtol=1e-9)


def _fit_bytes(fit):
    return ([(a.dtype.str, a.tobytes()) for a in (fit.beta, fit.se, fit.t_stat)]
            + [float(fit.r2_adj).hex(), fit.n])


def _lags(hac_lags, sample):
    """``hac_lags``, or for "n-1", "n" and "3n" that multiple of the sample's rows."""
    if not isinstance(hac_lags, str):
        return hac_lags
    n = sample.n
    return {"n-1": n - 1, "n": n, "3n": 3 * n}[hac_lags]


@pytest.mark.parametrize("hac_lags", [None, 0, 1, 2, 3, 4, "n-1", "n", "3n"])
def test_ols_fit_is_byte_identical_to_reference_ols_fit(rng, hac_lags):
    samples = []
    for i in range(60):
        n = int(rng.integers(4, 300))
        x = rng.normal(size=n)
        ctrl = rng.normal(size=n) if i % 2 else None
        y = rng.uniform(-2, 2) * x + rng.normal(0.0, rng.uniform(1e-3, 10.0), size=n)
        samples.append(sample_from(x, y, control=ctrl))
    # Regressors off zero, and controls that follow the predictor, so that
    # every term of (X'X)^-1 reaches the last bits of the standard errors.
    for i in range(60):
        n = int(rng.integers(4, 300))
        x = rng.uniform(-30, 30) + rng.normal(size=n)
        ctrl = (rng.uniform(-30, 30) + rng.uniform(-2, 2) * x + rng.normal(size=n)
                if i % 2 else None)
        y = rng.uniform(-2, 2) * x + rng.normal(0.0, rng.uniform(1e-3, 10.0), size=n)
        samples.append(sample_from(x, y, control=ctrl))
    # Orthogonal +-1 regressors fit these exactly, so every se is 0 and t is
    # 0 for a zero coefficient and +-inf for any other.
    alt = np.tile([-1.0, 1.0], 20)
    exact = [sample_from(alt, np.zeros(40)), sample_from(alt, np.ones(40)),
             sample_from(alt, 2.0 * alt),
             sample_from(alt, -2.0 * alt, control=np.repeat(alt[:2], 20))]
    for sample in exact:
        assert not ols_fit(sample, _lags(hac_lags, sample)).se.any()
    # Non-finite responses; inf warns inside numpy, on both sides alike.
    x = np.linspace(-2, 3, 50)
    nonfinite = [sample_from(x, np.where(x > 0, np.nan, x)),
                 sample_from(x, np.where(x > 0, np.inf, x), control=np.cos(x))]
    for sample in samples + exact + nonfinite:
        with np.errstate(all="ignore"):
            lags = _lags(hac_lags, sample)
            got, want = ols_fit(sample, lags), oracles.reference_ols_fit(sample, lags)
        assert _fit_bytes(got) == _fit_bytes(want)
    t_exact = {float(t) for s in exact for t in ols_fit(s, _lags(hac_lags, s)).t_stat}
    assert t_exact == {0.0, np.inf, -np.inf}


def test_newey_west_stops_at_the_sample(rng):
    # Lags past n - 1 pair no rows, so a huge lag count costs no more than n - 1.
    x = rng.normal(size=60)
    sample = sample_from(x, 0.5 * x + rng.normal(size=60))
    start = time.perf_counter()
    fit = ols_fit(sample, hac_lags=10**6)
    assert time.perf_counter() - start < 0.5
    assert np.isfinite(fit.se).all()


def test_newey_west_takes_a_lag_count_past_float_range(rng):
    # Every weight 1 - j/(lags + 1) rounds to 1.0 at both lag counts.
    x = rng.normal(size=60)
    sample = sample_from(x, 0.5 * x + rng.normal(size=60))
    assert _fit_bytes(ols_fit(sample, hac_lags=10**400)) == _fit_bytes(
        ols_fit(sample, hac_lags=2**60))


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

def test_significance_zero_t():
    assert significance(0.0, 1000, 1) == ""


def test_significance_large_t():
    assert significance(5.903, 50000, 1) == "***"


def test_significance_borderline_vs_quadrature_oracle():
    # t = 1.70 with 1000 residual degrees of freedom: p ~ 0.089 -> one star
    df = 1000
    p = two_sided_p(1.70, df)
    assert p == pytest.approx(oracles.t_two_sided_p(1.70, df), abs=1e-10)
    assert p == pytest.approx(0.0894, abs=5e-4)
    assert significance(1.70, df + 2, 1) == "*"


@pytest.mark.parametrize("t,df,expected", [
    (2.0, 500, "**"),     # p ~ 0.046
    (2.7, 500, "***"),    # p ~ 0.0072
    (1.2, 500, ""),       # p ~ 0.23
])
def test_significance_levels(t, df, expected):
    assert significance(t, df + 2, 1) == expected
    assert two_sided_p(t, df) == pytest.approx(oracles.t_two_sided_p(t, df), abs=1e-10)


def test_significance_infinite_t():
    assert significance(float("inf"), 100, 1) == "***"


@settings(max_examples=1000)
@given(t=st.floats(allow_nan=False, allow_infinity=False), df=st.integers(1, 10**7))
@example(t=0.0, df=1)
@example(t=-0.0, df=10**7)
@example(t=5e-324, df=3)
@example(t=-2.2250738585072014e-308, df=1000)
@example(t=1e300, df=1)
@example(t=-1e300, df=10**7)
def test_two_sided_p_is_bit_identical_to_scipy_t_sf(t, df):
    expected = 2.0 * float(stats.t.sf(abs(t), df))
    assert two_sided_p(t, df).hex() == expected.hex()


STAR_LEVELS = tuple(level for level, _ in regress._STAR_LEVELS)


def _scipy_stars(t, df):
    """The stars of scipy's p, by the strict rule ``significance`` keeps."""
    p = two_sided_p(t, df)
    return next((stars for level, stars in regress._STAR_LEVELS if p < level), "")


def _crossing_t(df, level):
    """The smallest positive t whose scipy p is below ``level``, by bisection
    over the floats around ``stdtrit``'s critical value."""
    tc = -float(stdtrit(df, level / 2))
    lo, hi = tc * 0.999, tc * 1.001
    assert two_sided_p(lo, df) >= level > two_sided_p(hi, df)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if two_sided_p(mid, df) >= level:
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=600, deadline=None)
@given(df=st.one_of(st.integers(1, 300), st.integers(1, 10**7)),
       level=st.sampled_from(STAR_LEVELS), rel=st.floats(-1e-3, 1e-3),
       sign=st.sampled_from((1.0, -1.0)))
@example(df=1, level=0.10, rel=0.0, sign=1.0)
@example(df=50, level=0.01, rel=0.0, sign=-1.0)
@example(df=9_999_811, level=0.10, rel=0.0, sign=1.0)  # lgamma difference off by 2e-8
@example(df=10**7, level=0.05, rel=1e-9, sign=-1.0)
@example(df=10**7, level=0.01, rel=-1e-4, sign=1.0)
def test_pure_p_tracks_scipy_near_each_star_level(df, level, rel, sign):
    t = sign * -float(stdtrit(df, level / 2)) * (1.0 + rel)
    want = two_sided_p(t, df)
    assert abs(regress._pure_two_sided_p(t, df) - want) <= want * regress._P_BAND / 100
    assert significance(t, df + 2, 1) == _scipy_stars(t, df)
    # The normal screen's premise: the normal tail lies below the t tail.
    assert math.erfc(abs(t) / math.sqrt(2.0)) < want * (1.0 + regress._P_BAND)


@pytest.mark.parametrize("df", [1, 2, 7, 30, 49, 50, 51, 120, 1000, 40_000, 10**5, 10**6,
                                10**7, 10**7 + 1, 10**12])
@pytest.mark.parametrize("level", STAR_LEVELS)
def test_significance_equals_scipy_stars_ulps_around_each_crossing(df, level):
    tc = _crossing_t(df, level)
    ts = [tc]
    lo = hi = tc
    for _ in range(6):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        ts += [lo, hi]
    want = [_scipy_stars(t, df) for t in ts]
    assert len(set(want)) == 2
    assert [significance(t, df + 2, 1) for t in ts] == want
    assert [significance(-t, df + 2, 1) for t in ts] == want


@pytest.mark.parametrize("t,n,expected", [
    (math.nan, 100, ""),
    (math.inf, 100, "***"),
    (-math.inf, 3, "***"),
    (0.0, 1000, ""),
    (-0.0, 3, ""),
    (5e-324, 3, ""),
    (1e300, 3, "***"),
    (-1e300, 10**7, "***"),
    (6.3, 3, ""),        # df 1: p ~ 0.1002
    (6.4, 3, "*"),       # df 1: p ~ 0.0989
    (12.8, 3, "**"),     # df 1: p ~ 0.0496
    (63.7, 3, "***"),    # df 1: p ~ 0.00999
], ids=["nan", "inf", "-inf-df1", "zero", "-zero-df1", "subnormal", "huge-df1",
        "-huge-df1e7", "df1-6.3", "df1-6.4", "df1-12.8", "df1-63.7"])
def test_significance_edge_cases(t, n, expected):
    assert significance(t, n, 1) == _scipy_stars(t, n - 2) == expected


@pytest.mark.parametrize("t", [1.0, math.nan, math.inf])
def test_significance_needs_a_degree_of_freedom(t):
    with pytest.raises(errors.TooFewObservations, match="got 0"):
        significance(t, 2, 1)


def test_normal_screen_keeps_its_rounding_margin(monkeypatch):
    # A t whose normal tail is just above 10% is not screened out: rounding in
    # erfc or in scipy's p could still put its t tail below 10%.
    t = math.sqrt(2.0) * float(erfcinv(0.10 * (1.0 + regress._P_BAND / 2)))
    assert 0.10 < math.erfc(t / math.sqrt(2.0)) < 0.10 * (1.0 + regress._P_BAND)
    monkeypatch.setattr(regress, "_pure_two_sided_p", lambda t, df: 0.0)
    assert significance(t, 10**6, 1) == "***"


def test_unconverged_pure_p_goes_to_scipy(monkeypatch):
    monkeypatch.setattr(regress, "_pure_two_sided_p", lambda t, df: math.nan)
    for t, df in ((2.0, 500), (2.7, 500), (1.7, 500), (1e3, 1)):
        assert significance(t, df + 2, 1) == _scipy_stars(t, df)


def test_sign_classification_rules():
    from flowcast.regress import classify_sign
    assert classify_sign(0.5, "***") == "positive"
    assert classify_sign(-0.5, "*") == "negative"
    assert classify_sign(0.5, "") == "insignificant"
    assert classify_sign(0.0, "***") == "insignificant"


def test_a_cell_derives_its_sign_from_beta1_and_stars():
    from flowcast.regress import HeatmapCell
    cell = HeatmapCell((Asset.ETH, Asset.ETH), "return", H1, MODEL_SINGLE,
                       beta1=-0.5, stars="**")
    assert cell.sign == "negative"
    cell.stars = ""
    assert cell.sign == "insignificant"
    failed = HeatmapCell((Asset.ETH, Asset.ETH), "return", H1, MODEL_SINGLE,
                         error="TooFewObservations: n=2 below minimum 30")
    assert (failed.beta1, failed.stars, failed.sign) == (None, "", "insignificant")


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _planted_market(seed=7, hours=8000):
    plants = GridPlants(usdt_eth_return=1.1e-5, eth_eth_return=-0.017,
                        usdt_btc_return=6.3e-6, btc_btc_vol=-17.0,
                        return_ar=-0.03)
    return gen_market(seed, hours, plants)


def test_run_grid_shape_and_planted_signs():
    data = _planted_market()
    cells = run_grid(data)
    assert len(cells) == 80
    by_key = {(c.pair, c.target, c.horizon, c.model): c for c in cells}
    eth_ret = by_key[((Asset.ETH, Asset.ETH), "return", H1, MODEL_SINGLE)]
    assert eth_ret.error is None
    assert eth_ret.sign == "negative" and eth_ret.stars == "***"
    assert eth_ret.beta1 == pytest.approx(-0.017, rel=0.25)
    btc_vol = by_key[((Asset.BTC, Asset.BTC), "volatility", H1, MODEL_SINGLE)]
    assert btc_vol.sign == "negative" and btc_vol.stars == "***"
    usdt_eth = by_key[((Asset.USDT, Asset.ETH), "return", H1, MODEL_DOUBLE)]
    assert usdt_eth.sign == "positive"


def _held_bytes(arrays) -> int:
    """Bytes of the buffers behind ``arrays``, each buffer once: a synthetic
    bar series' opens and closes are views of one."""
    buffers = (a if a.base is None else a.base for a in arrays)
    return sum({id(b): b.nbytes for b in buffers}.values())


def test_grid_study_runs_in_bounded_memory():
    # gen_market peaks at the arrays it returns plus one (hours, nsub)
    # temporary, and run_grid above its input at one horizon's series plus
    # one block of volatility windows. At 12,000 hours these came to 1.12x
    # and 0.34x. Drawing the bars through whole-array temporaries reached
    # 1.36x, a series cache over every horizon 0.69x, and volatility over one
    # array of every bar's return 0.59x. 12,000 hours hold several blocks.
    run_grid(_planted_market(hours=200))  # imports and first-use caches
    tracemalloc.start()
    try:
        market = _planted_market(hours=12_000)
        gen_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cells = run_grid(market)
        grid_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bars = _held_bytes(a for s in market.bars.values()
                       for a in (s.timestamps, s.open, s.high, s.low, s.close))
    flows = _held_bytes(a for f in market.flows.values()
                        for a in (f.timestamps, f.assets, f.inflow_usd, f.outflow_usd))
    assert gen_peak < 1.25 * (bars + flows)
    assert grid_peak < 0.45 * bars
    # One horizon at a time, yet the cells keep the (pair, target, horizon,
    # model) order.
    assert [(c.pair, c.target, c.horizon, c.model) for c in cells] == list(
        itertools.product(DEFAULT_PAIRS, TARGETS, DEFAULT_HORIZONS, MODELS))
    assert not any(c.error for c in cells)


def test_run_grid_marks_rank_deficient_cells():
    data = _planted_market(hours=500)
    # constant flows: net inflow is identically zero at every horizon
    zero = np.zeros(500)
    from conftest import make_flows
    data.flows[Asset.ETH] = make_flows(zero)
    cells = run_grid(data, pairs=((Asset.ETH, Asset.ETH),),
                     targets=("return",))
    assert len(cells) == 10
    assert all(c.error is not None and "RankDeficient" in c.error for c in cells)


def test_run_grid_refuses_an_unknown_target_or_model_up_front():
    # No series can be built from an empty market, so each cell would fail;
    # the unknown value must be refused before any of them is tried.
    empty = regress.MarketData(flows={}, bars={})
    with pytest.raises(errors.InvalidConfig,
                       match="^unknown target 'price'; allowed: return, volatility$"):
        run_grid(empty, targets=("return", "price"))
    with pytest.raises(errors.InvalidConfig,
                       match="^unknown model 'triple'; allowed: single, double$"):
        run_grid(empty, models=("triple",))


def test_run_grid_deterministic_serialization():
    data = _planted_market(hours=600)
    a = grid_to_json(run_grid(data))
    b = grid_to_json(run_grid(data))
    assert a == b
    cells = grid_from_json(a)
    assert grid_to_json(cells) == a
    tsv = grid_to_tsv(run_grid(data))
    assert tsv == grid_to_tsv(grid_from_json(a))
    assert tsv.splitlines()[0].startswith("horizon\tmodel\t")
    assert len(tsv.splitlines()) == 11  # header + 5 horizons x 2 models


def test_grid_tsv_leaves_a_missing_cell_empty():
    pairs = [(Asset.USDT, Asset.ETH), (Asset.ETH, Asset.ETH)]
    cells = [regress.HeatmapCell(pair, "return", H1 * h, MODEL_SINGLE, beta1=0.5)
             for h in (1, 2) for pair in pairs][:-1]
    assert grid_to_tsv(cells) == ("horizon\tmodel\tUSDT->ETH:return\tETH->ETH:return\n"
                                  "1h\tsingle\t0.5\t0.5\n"
                                  "2h\tsingle\t0.5\t\n")


def test_run_grid_on_gappy_market_matches_reference_align(monkeypatch):
    rng = np.random.default_rng(44)
    market = _planted_market(hours=3000)
    flows = {}
    for asset, f in market.flows.items():
        keep = rng.random(len(f)) >= 0.02
        flows[asset] = FlowSeries(f.timestamps[keep], f.assets[keep], f.inflow_usd[keep],
                                  f.outflow_usd[keep])
    bars = {}
    for asset, b in market.bars.items():
        keep = rng.random(len(b)) >= 0.003
        bars[asset] = BarSeries(b.timestamps[keep], b.open[keep], b.high[keep], b.low[keep],
                                b.close[keep], b.frequency, b.asset)
    gappy = MarketData(flows=flows, bars=bars)
    cells = run_grid(gappy)
    assert sum(c.error is None for c in cells) > 60
    monkeypatch.setattr(regress, "align", oracles.reference_align)
    assert grid_to_json(run_grid(gappy)) == grid_to_json(cells)


def test_white_noise_star_fraction():
    # with nothing planted, ~10% of cells earn a star at the 10% level
    starred = total = 0
    for seed in range(40):
        data = gen_market(seed, 1200, GridPlants())
        for cell in run_grid(data):
            assert cell.error is None
            total += 1
            starred += bool(cell.stars)
    frac = starred / total
    assert 0.05 < frac < 0.16


def test_eth_return_plant_leaks_into_eth_volatility_at_one_hour_only():
    """With criterion 3's plants, which plant no ETH volatility, the ETH->ETH
    volatility cells at 2-6 h are starred no more often than criterion 9's
    white-noise band allows.

    1 h is left out: synth's sub-bars scale their spread by the hour's own
    planted return, so the ETH return plant also plants a 1 h volatility
    slope of about beta/12 of the mean volatility, starred in most seeds. In
    a longer window only the first hour's return is driven by the predictor
    (its last hour), so the slope thins out."""
    horizons = tuple(timedelta(hours=h) for h in (2, 3, 4, 6))
    starred = total = 0
    for seed in range(10):
        cells = run_grid(_planted_market(seed, 40000), horizons=horizons,
                         pairs=((Asset.ETH, Asset.ETH),), targets=(TARGET_VOLATILITY,))
        for cell in cells:
            assert cell.error is None
            total += 1
            starred += bool(cell.stars)
    assert total == 80
    assert starred / total <= 0.13


# ---------------------------------------------------------------------------
# daily / weekly grid
# ---------------------------------------------------------------------------

def test_daily_grid_recovers_planted_volatility():
    cfg = SynthConfig(seed=11, hours=24 * 400, flow_sd_musd=1e-3,
                      vol_beta1=-7.7, vol_base=0.01, vol_floor=0.002,
                      vol_horizon=timedelta(hours=24), asset=Asset.BTC,
                      init_price=30000.0)
    flows, bars = gen_flows_and_prices(cfg)
    data = MarketData(flows={Asset.BTC: flows}, bars={Asset.BTC: bars})
    cells = run_grid(data, horizons=DAILY_WEEKLY_HORIZONS, pairs=((Asset.BTC, Asset.BTC),),
                     targets=(TARGET_VOLATILITY,))
    assert len(cells) == 4
    daily_single = next(c for c in cells if c.horizon == timedelta(hours=24)
                        and c.model == MODEL_SINGLE)
    assert daily_single.error is None
    assert daily_single.sign == "negative" and daily_single.stars == "***"


def test_weekly_too_few_observations_marked():
    cfg = SynthConfig(seed=3, hours=24 * 100, asset=Asset.BTC)  # ~14 weeks
    flows, bars = gen_flows_and_prices(cfg)
    data = MarketData(flows={Asset.BTC: flows}, bars={Asset.BTC: bars})
    cells = run_grid(data, horizons=DAILY_WEEKLY_HORIZONS, pairs=((Asset.BTC, Asset.BTC),),
                     targets=(TARGET_VOLATILITY,))
    weekly = [c for c in cells if c.horizon == timedelta(hours=168)]
    assert all(c.error is not None and "TooFewObservations" in c.error
               for c in weekly)


def test_weekly_double_model_recovers_vol_persistence():
    cfg = SynthConfig(seed=29, hours=168 * 80, flow_sd_musd=1e-3,
                      vol_beta1=-2.0, vol_base=0.01, vol_floor=0.001,
                      vol_horizon=timedelta(hours=168), vol_ar=0.6,
                      vol_noise_sd=0.002, asset=Asset.BTC, init_price=30000.0)
    flows, bars = gen_flows_and_prices(cfg)
    from flowcast.series import align, net_inflows, realized_vol
    h = timedelta(hours=168)
    sample = align(net_inflows(flows, h), realized_vol(bars, h),
                   control=realized_vol(bars, h))
    fit = ols_fit(sample)
    assert abs(fit.beta[2] - 0.6) <= 3.0 * fit.se[2]
