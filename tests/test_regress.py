from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from conftest import T0
from flowcast import errors, regress
from flowcast.ingest import Asset, BarSeries, FlowSeries
from flowcast.regress import (
    DEFAULT_PAIRS,
    MODEL_DOUBLE,
    MODEL_SINGLE,
    MarketData,
    daily_weekly_grid,
    default_hac_lags,
    design_matrix,
    grid_from_json,
    grid_to_json,
    grid_to_tsv,
    ols_fit,
    run_grid,
    significance,
    split_evaluate,
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
    assert default_hac_lags(100) == 4


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


def test_sign_classification_rules():
    from flowcast.regress import classify_sign
    assert classify_sign(0.5, "***") == "positive"
    assert classify_sign(-0.5, "*") == "negative"
    assert classify_sign(0.5, "") == "insignificant"
    assert classify_sign(0.0, "***") == "insignificant"


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
    cells = daily_weekly_grid(data, pairs=((Asset.BTC, Asset.BTC),))
    assert len(cells) == 4
    daily_single = next(c for c in cells if c.horizon == timedelta(hours=24)
                        and c.model == MODEL_SINGLE)
    assert daily_single.error is None
    assert daily_single.sign == "negative" and daily_single.stars == "***"


def test_weekly_too_few_observations_marked():
    cfg = SynthConfig(seed=3, hours=24 * 100, asset=Asset.BTC)  # ~14 weeks
    flows, bars = gen_flows_and_prices(cfg)
    data = MarketData(flows={Asset.BTC: flows}, bars={Asset.BTC: bars})
    cells = daily_weekly_grid(data, pairs=((Asset.BTC, Asset.BTC),))
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


# ---------------------------------------------------------------------------
# split_evaluate
# ---------------------------------------------------------------------------

def test_split_perfect_line():
    x = np.linspace(0, 1, 100)
    fit, oos = split_evaluate(sample_from(x, 3.0 * x - 0.5), 0.7)
    assert fit.n == 70
    assert oos == pytest.approx(1.0, abs=1e-12)


def test_split_sizes():
    x = np.linspace(0, 1, 100)
    y = x + 0.01 * np.sin(x * 40)
    fit, _ = split_evaluate(sample_from(x, y), 0.7)
    assert fit.n == 70  # train 70, test 30


def test_split_uses_chronological_head_for_training(rng):
    x = rng.normal(size=100)
    y = np.concatenate([2.0 * x[:70], -2.0 * x[70:]])  # relation flips late
    fit, oos = split_evaluate(sample_from(x, y), 0.7)
    assert fit.beta[1] == pytest.approx(2.0, abs=1e-9)
    assert oos < 0  # stale coefficients score badly out of sample


def test_split_independent_response_oos_nonpositive_in_expectation(rng):
    vals = []
    for _ in range(200):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        _, oos = split_evaluate(sample_from(x, y), 0.7)
        vals.append(oos)
    assert np.mean(vals) < 0.0


def test_split_too_few_observations():
    x = np.arange(6.0)
    with pytest.raises(errors.TooFewObservations):
        split_evaluate(sample_from(x, x), 0.9)


def test_split_bad_fraction():
    x = np.arange(20.0)
    with pytest.raises(errors.InvalidConfig):
        split_evaluate(sample_from(x, x), 1.0)
