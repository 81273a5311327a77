from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from flowcast import errors
from flowcast.ingest import Asset, QuoteSeries, bars_to_csv, flows_to_csv, quotes_to_csv
from flowcast.regress import ols_fit
from flowcast.series import HOUR, align, net_inflows, realized_vol, returns
from flowcast.synth import (
    DEFAULT_START,
    IV_FLOOR,
    GridPlants,
    OptionChainSpec,
    SynthConfig,
    _ar1,
    black_scholes_call,
    gen_flows_and_prices,
    gen_market,
    gen_option_chain,
)


def test_same_seed_byte_identical():
    cfg = SynthConfig(seed=99, hours=150, beta1=-0.01,
                      chain=OptionChainSpec())
    flows_a, bars_a = gen_flows_and_prices(cfg)
    flows_b, bars_b = gen_flows_and_prices(cfg)
    assert flows_to_csv(flows_a) == flows_to_csv(flows_b)
    assert bars_to_csv(bars_a) == bars_to_csv(bars_b)
    quotes_a = gen_option_chain(cfg, bars_a, flows=flows_a)
    quotes_b = gen_option_chain(cfg, bars_b, flows=flows_b)
    assert quotes_to_csv(quotes_a) == quotes_to_csv(quotes_b)


def test_different_seeds_differ():
    a = gen_flows_and_prices(SynthConfig(seed=1, hours=120))[0]
    b = gen_flows_and_prices(SynthConfig(seed=2, hours=120))[0]
    assert flows_to_csv(a) != flows_to_csv(b)


def test_noiseless_recovery_is_exact():
    cfg = SynthConfig(seed=7, hours=400, beta0=2e-4, beta1=-0.017,
                      beta2=-0.03, noise_sd=0.0)
    flows, bars = gen_flows_and_prices(cfg)
    rt = returns(bars, HOUR)
    sample = align(net_inflows(flows, HOUR), rt, control=rt)
    fit = ols_fit(sample)
    assert fit.beta[0] == pytest.approx(2e-4, rel=1e-8)
    assert fit.beta[1] == pytest.approx(-0.017, rel=1e-8)
    assert fit.beta[2] == pytest.approx(-0.03, rel=1e-8)


def test_noisy_recovery_within_three_se():
    cfg = SynthConfig(seed=13, hours=40000, beta1=-0.017, beta2=-0.03,
                      noise_sd=0.01, flow_sd_musd=1.0)
    flows, bars = gen_flows_and_prices(cfg)
    rt = returns(bars, HOUR)
    fit = ols_fit(align(net_inflows(flows, HOUR), rt, control=rt))
    assert abs(fit.beta[1] - (-0.017)) <= 3.0 * fit.se[1]
    assert fit.t_stat[1] < -10


def test_volatility_plant_recovered():
    cfg = SynthConfig(seed=21, hours=4000, vol_beta1=-17.0, flow_sd_musd=1e-4,
                      vol_base=0.01, vol_floor=0.002)
    flows, bars = gen_flows_and_prices(cfg)
    vol = realized_vol(bars, HOUR)
    fit = ols_fit(align(net_inflows(flows, HOUR), vol))
    # sub-bar sampling attenuates the slope slightly; sign and strength hold
    assert fit.beta[1] == pytest.approx(-17.0, rel=0.15)
    assert fit.t_stat[1] < -10


def test_bar_invariants_hold(rng):
    cfg = SynthConfig(seed=31, hours=200, beta1=-0.02, noise_sd=0.02,
                      vol_beta1=-5.0, flow_sd_musd=1e-3)
    _, bars = gen_flows_and_prices(cfg)
    assert np.all(bars.low > 0)
    assert np.all(bars.low <= np.minimum(bars.open, bars.close))
    assert np.all(bars.high >= np.maximum(bars.open, bars.close))
    assert np.all(np.diff(bars.timestamps) == 300)


def test_quote_invariants_hold():
    cfg = SynthConfig(seed=41, hours=150, chain=OptionChainSpec(
        moneyness=(0.9, 1.0, 1.1), iv_flow_beta=-0.05, iv_base=0.9))
    flows, bars = gen_flows_and_prices(cfg)
    quotes = gen_option_chain(cfg, bars, flows=flows)
    assert len(quotes) > 0
    assert np.all(quotes.expiries > quotes.quote_times)
    assert np.all((quotes.deltas >= 0) & (quotes.deltas <= 1))
    assert np.all(quotes.option_prices >= 0)
    assert np.all(quotes.implied_vols > 0)
    assert np.all(np.diff(quotes.quote_times) >= 0)


@pytest.mark.parametrize("init_price", [150.0, 20.0, 1.0])
@pytest.mark.parametrize("moneyness", [(0.98, 1.0, 1.02, 1.05), (1.0, 1.0, 1.05)])
def test_strike_ladder_keeps_every_rung_below_250(init_price, moneyness):
    # Below an index of about 250, rungs 2% apart round onto one strike on
    # the 5-dollar step; the expiry then takes a finer one. A rung repeated
    # in the moneyness ladder is still one strike.
    cfg = SynthConfig(seed=7, hours=100, init_price=init_price,
                      chain=OptionChainSpec(moneyness=moneyness))
    flows, bars = gen_flows_and_prices(cfg)
    quotes = gen_option_chain(cfg, bars, flows=flows)
    assert quotes.index_prices.max() < 250
    assert quotes.strikes.min() > 0
    _, per_listing = np.unique(np.stack([quotes.quote_times, quotes.expiries]),
                               axis=1, return_counts=True)
    assert (per_listing == len(set(moneyness))).all()


def _chain(init_price=2000.0, **spec):
    cfg = SynthConfig(seed=61, hours=150, init_price=init_price,
                      chain=OptionChainSpec(**spec))
    flows, bars = gen_flows_and_prices(cfg)
    return (gen_option_chain(cfg, bars, flows=flows),
            oracles.reference_option_chain(cfg, bars, flows))


CHAIN_CASES = {
    "default": (2000.0, {}),
    "wide": (2000.0, dict(moneyness=(0.9, 1.0, 1.1))),
    "repeated-rung": (2000.0, dict(moneyness=(1.0, 1.0, 1.05))),
    "index-150": (150.0, {}),
    "index-20": (20.0, {}),
    "index-1": (1.0, {}),
    "12h-expiries-72h-life": (2000.0, dict(expiry_every=timedelta(hours=12),
                                           lifetime=timedelta(hours=72))),
    "30min-life": (2000.0, dict(lifetime=timedelta(minutes=30))),
    "iv-floor": (2000.0, dict(iv_flow_beta=1.0)),
}


@pytest.mark.parametrize("init_price, spec", CHAIN_CASES.values(), ids=CHAIN_CASES)
def test_chain_matches_per_hour_reference_byte_for_byte(init_price, spec):
    quotes, reference = _chain(init_price, **spec)
    assert quotes_to_csv(quotes) == quotes_to_csv(reference)


def test_chain_without_a_live_expiry_is_empty():
    quotes, _ = _chain(lifetime=timedelta(minutes=30))
    assert isinstance(quotes, QuoteSeries) and len(quotes) == 0
    assert quotes.quote_times.dtype == quotes.expiries.dtype == np.int64


def test_chain_case_reaches_the_iv_floor():
    quotes, _ = _chain(iv_flow_beta=1.0)
    assert (quotes.implied_vols == IV_FLOOR).any() and (quotes.implied_vols > IV_FLOOR).any()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


CALLS = st.tuples(
    st.floats(0.5, 1e5),                                      # index
    st.one_of(st.just(1.0), st.floats(0.2, 5.0)),             # strike / index
    st.one_of(st.sampled_from((0.0, -0.5)), st.floats(1e-6, 2.0)),  # years
    st.one_of(st.sampled_from((0.0, -0.1)), st.floats(1e-3, 3.0)),  # sigma
)


@settings(max_examples=200)
@given(calls=st.lists(CALLS, min_size=1, max_size=30))
def test_black_scholes_on_arrays_matches_scalar_bit_for_bit(calls):
    calls = [(index, index * m, years, sigma) for index, m, years, sigma in calls]
    price, delta = black_scholes_call(*map(np.array, zip(*calls)))
    expected = [oracles.reference_black_scholes_call(*c) for c in calls]
    assert _bits(price) == _bits([p for p, _ in expected])
    assert _bits(delta) == _bits([d for _, d in expected])
    assert _bits(black_scholes_call(*calls[0])) == _bits(expected[0])


AR_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308)),
                      st.floats(-1.0, 1.0))


@settings(max_examples=200)
@given(x=arrays(np.float64, st.integers(1, 5000), elements=AR_VALUES),
       b=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.99, 0.99)))
def test_ar1_matches_lfilter_bit_for_bit(x, b):
    from scipy.signal import lfilter
    assert _bits(_ar1(x, b)) == _bits(lfilter([1.0], [1.0, -b], x))


def test_plant_and_recover_sign_classification():
    # planted |t| ~ 75, far above the 4-se bar, so all 100 seeds must agree
    from flowcast.regress import classify_sign, significance
    hits = 0
    seeds = range(100)
    for seed in seeds:
        cfg = SynthConfig(seed=seed, hours=2000, beta1=-0.017, noise_sd=0.01)
        flows, bars = gen_flows_and_prices(cfg)
        rt = returns(bars, HOUR)
        fit = ols_fit(align(net_inflows(flows, HOUR), rt))
        stars = significance(float(fit.t_stat[1]), fit.n, fit.k)
        hits += classify_sign(float(fit.beta[1]), stars) == "negative"
    assert hits / len(list(seeds)) > 0.99


def test_deep_itm_quote_near_intrinsic():
    price, delta = black_scholes_call(2000.0, 1000.0, 1.0 / 8760.0, 0.8)
    assert price == pytest.approx(1000.0, rel=0.01)
    assert delta == pytest.approx(1.0, abs=1e-6)


def test_far_otm_quote_worthless():
    price, _ = black_scholes_call(2000.0, 100000.0, 1.0 / 365.0, 0.8)
    assert price < 1e-9


def test_atm_delta_half_plus_drift():
    years, sigma = 1.0 / 365.0, 0.8
    price, delta = black_scholes_call(2000.0, 2000.0, years, sigma)
    assert delta == pytest.approx(0.5 + 0.2 * sigma * np.sqrt(years), abs=0.01)
    assert price == pytest.approx(
        oracles.call_value_quad(2000.0, 2000.0, years, sigma), rel=1e-8)


def test_chain_prices_match_quadrature_oracle():
    cfg = SynthConfig(seed=51, hours=120, chain=OptionChainSpec(
        moneyness=(0.95, 1.0, 1.05), iv_base=1.2))
    flows, bars = gen_flows_and_prices(cfg)
    quotes = gen_option_chain(cfg, bars, flows=flows)
    for i in range(0, len(quotes), max(1, len(quotes) // 7)):
        index = quotes.index_prices[i]
        years = (quotes.expiries[i] - quotes.quote_times[i]) / (365.0 * 86400.0)
        ref = oracles.call_value_quad(index, quotes.strikes[i], years, quotes.implied_vols[i])
        assert quotes.option_prices[i] * index == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_invalid_configs_rejected():
    with pytest.raises(errors.InvalidConfig):
        gen_flows_and_prices(SynthConfig(seed=1, hours=50))  # too short
    with pytest.raises(errors.InvalidConfig):
        gen_flows_and_prices(SynthConfig(seed=1, hours=100, noise_sd=-1.0))
    with pytest.raises(errors.InvalidConfig):
        gen_flows_and_prices(SynthConfig(seed=1, hours=100,
                                         sub_frequency=timedelta(minutes=7)))
    flows, bars = gen_flows_and_prices(SynthConfig(seed=1, hours=100))
    with pytest.raises(errors.InvalidConfig):
        gen_option_chain(SynthConfig(seed=1, hours=100), bars, flows)


def test_gen_market_covers_grid_assets():
    market = gen_market(3, 300, GridPlants())
    assert set(market.flows) == {Asset.USDT, Asset.ETH, Asset.BTC}
    assert set(market.bars) == {Asset.ETH, Asset.BTC}
    assert market.flows[Asset.ETH].timestamps[0] == DEFAULT_START
    for bars in market.bars.values():
        assert len(bars) == 300 * 12
