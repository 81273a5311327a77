import dataclasses
import warnings
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
    _ar1_unless_zero,
    _ndtr,
    black_scholes_call,
    gen_flows_and_prices,
    gen_market,
    gen_option_chain,
    gen_price_bars,
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


def _ulp_neighbours(points, n=50):
    """Each point with its n nearest floats on either side."""
    points = np.asarray(points, dtype=np.float64)
    out, lo, hi = [points], points, points
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def test_ndtr_is_bit_identical_to_scipy():
    from scipy.special import ndtr
    rng = np.random.default_rng(20261020)
    # Branch edges of Cephes' ndtr in a = x·√2: |x| = 1/√2 (erf or erfc),
    # 1 (1 - erf or the P/Q rational), 8 (P/Q or R/S) and x² = MAXLOG,
    # where ndtr drops from about 6e-311 to 0 (a ≈ -37.677). The grid over
    # [-38.6, -37.6] also covers a ≈ -38.5, where the normal tail itself falls
    # below the least subnormal.
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.67712072049519])
    a = np.concatenate(
        [rng.normal(0.0, scale, 100_000) for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
        + [np.linspace(-40.0, 40.0, 800_001), _ulp_neighbours(np.concatenate([edges, -edges])),
           np.linspace(-38.6, -37.6, 10_001),
           np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]),
           _ulp_neighbours([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(a)
    assert np.array_equal(got.view(np.int64), ndtr(a).view(np.int64))


AR_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308)),
                      st.floats(-1.0, 1.0))


@settings(max_examples=200)
@given(x=arrays(np.float64, st.integers(1, 5000), elements=AR_VALUES),
       b=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-0.99, 0.99)))
def test_ar1_matches_lfilter_bit_for_bit(x, b):
    from scipy.signal import lfilter
    assert _bits(_ar1(x, b)) == _bits(lfilter([1.0], [1.0, -b], x))


@settings(max_examples=200)
@given(x=arrays(np.float64, st.integers(1, 500), elements=st.one_of(
           AR_VALUES, st.sampled_from((np.inf, -np.inf, np.nan)))),
       b=st.sampled_from((0.0, -0.0)), base=st.sampled_from((1.0, 0.01)))
def test_ar1_skipped_at_zero_gives_the_bars_the_same_bits(x, b, base):
    # gen_price_bars adds 1.0 to the returns and vol_base to the dispersion.
    assert _bits(base + _ar1_unless_zero(x, b)) == _bits(base + _ar1(x, b))


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
    # gen_market takes these settings through its own arguments and
    # GridPlants, and refuses them with gen_flows_and_prices' message.
    seven_minutes = timedelta(minutes=7)
    for fields, market in [
        (dict(hours=50), dict(hours=50)),  # too short
        (dict(hours=100, noise_sd=-1.0), dict(hours=100, plants=GridPlants(noise_sd=-1.0))),
        (dict(hours=100, sub_frequency=seven_minutes),
         dict(hours=100, sub_frequency=seven_minutes)),
        (dict(seed=-1, hours=100), dict(seed=-1, hours=100)),
    ]:
        with pytest.raises(errors.InvalidConfig) as single:
            gen_flows_and_prices(SynthConfig(**{"seed": 1, **fields}))
        with pytest.raises(errors.InvalidConfig) as multi:
            gen_market(**{"seed": 1, **market})
        assert str(multi.value) == str(single.value)
    assert str(single.value) == "seed must be >= 0, got -1"
    with pytest.raises(errors.InvalidConfig,
                       match="^hours=101 is not a multiple of the 2h vol horizon$"):
        gen_flows_and_prices(SynthConfig(seed=1, hours=101, vol_horizon=timedelta(hours=2)))
    flows, bars = gen_flows_and_prices(SynthConfig(seed=1, hours=100))
    with pytest.raises(errors.InvalidConfig):
        gen_option_chain(SynthConfig(seed=1, hours=100), bars, flows)


@pytest.mark.parametrize("config,required", [
    (SynthConfig, dict(seed=1, hours=100)),
    (OptionChainSpec, {}),
    (GridPlants, {}),
], ids=["SynthConfig", "OptionChainSpec", "GridPlants"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_configs_refuse_a_non_finite_float_on_construction(config, required, value):
    names = [f.name for f in dataclasses.fields(config) if f.type == "float"]
    assert names
    for name in names:
        with pytest.raises(errors.InvalidConfig, match=f"^{name} must be finite, got {value}$"):
            config(**required, **{name: value})


@pytest.mark.parametrize("config,fields,message", [
    (SynthConfig, dict(vol_base=0.0), "vol_base and vol_floor must be positive"),
    (SynthConfig, dict(vol_floor=-0.001), "vol_base and vol_floor must be positive"),
    (SynthConfig, dict(init_price=0.0), "init_price must be positive"),
    (SynthConfig, dict(init_price=-1.0), "init_price must be positive"),
    (SynthConfig, dict(vol_horizon=timedelta(minutes=90)),
     "vol_horizon must be a whole number of hours"),
    (SynthConfig, dict(vol_horizon=timedelta(0)), "vol_horizon must be a whole number of hours"),
    # Divides one hour 2,400 times, and was once read as 1 s bars labelled 1.5 s.
    (SynthConfig, dict(sub_frequency=timedelta(seconds=1.5)),
     "sub_frequency must be a positive whole-second duration, got 0:00:01.500000"),
    (OptionChainSpec, dict(expiry_every=timedelta(hours=24, milliseconds=500)),
     "expiry_every must be a positive whole-second duration, got 1 day, 0:00:00.500000"),
    (OptionChainSpec, dict(expiry_every=timedelta(0)),
     "expiry_every must be a positive whole-second duration, got 0:00:00"),
    (OptionChainSpec, dict(lifetime=timedelta(hours=-48)),
     "lifetime must be a positive whole-second duration, got -2 days, 0:00:00"),
], ids=["vol-base-zero", "vol-floor-negative", "init-price-zero", "init-price-negative",
        "vol-horizon-off-whole-hours", "vol-horizon-zero", "sub-frequency-off-whole-seconds",
        "expiry-off-whole-seconds", "expiry-zero", "lifetime-negative"])
def test_configs_refuse_a_field_out_of_range(config, fields, message):
    required = dict(seed=1, hours=100) if config is SynthConfig else {}
    with pytest.raises(errors.InvalidConfig) as exc:
        config(**required, **fields)
    assert str(exc.value) == message


def test_generators_refuse_flows_or_bars_off_the_grid():
    cfg = SynthConfig(seed=1, hours=200, chain=OptionChainSpec())
    short = dataclasses.replace(cfg, hours=100)
    flows, bars = gen_flows_and_prices(cfg)
    short_flows, short_bars = gen_flows_and_prices(short)
    seq = np.random.SeedSequence(1)
    with pytest.raises(errors.InvalidConfig,
                       match="^flow series does not cover the generation grid$"):
        gen_price_bars(seq, cfg, {Asset.ETH: short_flows}, {Asset.ETH: 0.0}, {})
    with pytest.raises(errors.InvalidConfig, match="^bars do not cover the generation grid$"):
        gen_option_chain(cfg, short_bars, flows)
    with pytest.raises(errors.InvalidConfig,
                       match="^flow series does not cover the generation grid$"):
        gen_option_chain(cfg, bars, short_flows)


def test_a_plant_that_drives_prices_out_of_range_is_refused():
    with pytest.raises(errors.InvalidConfig,
                       match="^the plants drive the ETH close at 2021-01-07T02:55:00Z to inf, "
                             "not a finite positive price$"):
        gen_flows_and_prices(SynthConfig(seed=1, hours=100, beta1=1e308))
    with pytest.raises(errors.InvalidConfig, match="^the plants drive the BTC close at "):
        gen_market(1, 100, GridPlants(btc_btc_vol=1e308))


def test_an_implied_vol_whose_variance_overflows_is_refused():
    # Priced, such a vol gave the intrinsic value; at 1e154 the variance is
    # finite and the call is worth its limit, the index.
    flows, bars = gen_flows_and_prices(SynthConfig(seed=1, hours=100))
    for spec in (OptionChainSpec(iv_base=1e308), OptionChainSpec(iv_flow_beta=1e308)):
        with pytest.raises(errors.InvalidConfig, match=" overflows the call's variance$"):
            gen_option_chain(SynthConfig(seed=1, hours=100, chain=spec), bars, flows)
    cfg = SynthConfig(seed=1, hours=100, chain=OptionChainSpec(iv_base=1e154))
    assert (gen_option_chain(cfg, bars, flows).option_prices == 1.0).all()


def test_gen_market_covers_grid_assets():
    market = gen_market(3, 300, GridPlants())
    assert set(market.flows) == {Asset.USDT, Asset.ETH, Asset.BTC}
    assert set(market.bars) == {Asset.ETH, Asset.BTC}
    assert market.flows[Asset.ETH].timestamps[0] == DEFAULT_START
    for bars in market.bars.values():
        assert len(bars) == 300 * 12
