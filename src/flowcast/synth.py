"""Deterministic synthetic market data with planted relations.

Serves as the verification oracle for the whole pipeline: hourly net
inflows are i.i.d. normal, next-hour returns follow

    r[i] = b0 + sum_a beta_a * netinflow_a[i-1] + b2 * r[i-1] + eps[i]

and sub-bar return dispersion inside each volatility bucket scales as
``vol_base + sum_a vol_beta_a * netinflow_a(previous bucket)``, floored
at a small positive constant. Sub-bars are constructed to compound
*exactly* to the planted hourly return. The two channels are not
independent: each sub-bar factor is ``g * c * (1 + u)`` with
``g = (1 + r)**(1/nsub)``, so an hour's sub-return spread scales with its
own return r, and a return plant ``beta`` also plants a 1 h volatility
slope of about ``beta/nsub`` of the mean volatility (``beta/12`` for
5-minute sub-bars). Both AR(1) terms (``b2``, and
``vol_ar`` on the dispersion) run ``y[i] = x[i] + b * y[i-1]`` from rest
in Python floats, bit for bit ``scipy.signal.lfilter([1], [1, -b], x)``.
Option quotes are priced with ``_ndtr``, bit for bit ``scipy.special.ndtr``,
so this module imports no scipy.

``SynthConfig`` holds every synth default, and every series starts at
``DEFAULT_START``. Each array is drawn in a fixed order from numpy's PCG64
seeded through ``SeedSequence(seed)``, so a seed pins the full dataset
byte-for-byte.

``SynthConfig``, ``OptionChainSpec`` and ``GridPlants`` check themselves on
construction and raise ``InvalidConfig``: every float field must be finite,
and the first two also check their ranges. ``gen_market`` checks the
plants' ranges when it builds its ``SynthConfig``, before any draw.
``gen_price_bars`` refuses a plant that drives a close to infinity, NaN or
0, which no bar file may hold, and ``black_scholes_call`` an implied vol
whose variance overflows, which it would price at the intrinsic value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from datetime import timedelta
from typing import Mapping

from ._lazy import np
from .errors import InvalidConfig
from .ingest import (Asset, BarSeries, FlowSeries, QuoteSeries, _distinct, _seconds,
                     format_timestamp)
from .regress import MarketData
from .series import HOUR

# 2021-01-07T00:00:00Z: a Thursday midnight, so every horizon grid up to
# one week (a divisor of 168h) starts exactly on the first sample.
DEFAULT_START = 1609977600
DEFAULT_SUB_FREQUENCY = timedelta(minutes=5)

YEAR_SECONDS = 365.0 * 24.0 * 3600.0

_RETURN_CLIP = -0.5   # keeps prices positive under extreme draws
_SUB_CLIP = -0.9
STRIKE_STEP = 5.0   # option strikes round to this step, halved where two rungs meet
IV_FLOOR = 0.05     # least implied vol of a synthetic quote


def _check_finite(config) -> None:
    """Refuse NaN or an infinity in any float field of a synth config. A
    field's type is its annotation's text, as this module's ``annotations``
    future import leaves it."""
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type == "float" and not math.isfinite(value):
            raise InvalidConfig(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class OptionChainSpec:
    """Strike/expiry grid of the synthetic call chain, quoted every hour.

    Strikes are the moneyness rungs rounded to ``STRIKE_STEP``, and the
    implied vol is floored at ``IV_FLOOR``. Refuses, with InvalidConfig, a
    float field that is not finite, an ``iv_base`` at or below 0, and an
    ``expiry_every`` or ``lifetime`` that is not a positive whole number of
    seconds.
    """

    moneyness: tuple[float, ...] = (0.98, 1.0, 1.02, 1.05)
    expiry_every: timedelta = timedelta(hours=24)
    lifetime: timedelta = timedelta(hours=48)
    iv_base: float = 0.8
    iv_flow_beta: float = 0.0   # implied-vol response to last hour's net inflow

    def __post_init__(self):
        _check_finite(self)
        _seconds(self.expiry_every, "expiry_every", error=InvalidConfig)
        _seconds(self.lifetime, "lifetime", error=InvalidConfig)
        if self.iv_base <= 0:
            raise InvalidConfig("iv_base must be positive")


@dataclass(frozen=True)
class SynthConfig:
    """One planted (net inflow -> same asset) system plus its option chain:
    every synth default, checked on construction.

    Refuses, with InvalidConfig: a float field that is not finite; a negative
    ``seed``; ``hours`` under 100 or not a multiple of ``vol_horizon``; a
    negative standard deviation; ``vol_base``, ``vol_floor`` or ``init_price``
    at or below 0; a ``sub_frequency`` that does not divide one hour or is
    not a whole number of seconds; a ``vol_horizon`` that is not a positive
    whole number of hours.
    """

    seed: int
    hours: int
    beta0: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    noise_sd: float = 0.01
    flow_sd_musd: float = 1.0
    vol_base: float = 0.01
    vol_beta1: float = 0.0
    vol_floor: float = 0.002
    vol_horizon: timedelta = HOUR
    vol_ar: float = 0.0
    vol_noise_sd: float = 0.0
    sub_frequency: timedelta = DEFAULT_SUB_FREQUENCY
    init_price: float = 2000.0
    asset: Asset = Asset.ETH
    chain: OptionChainSpec | None = None

    def __post_init__(self):
        _check_finite(self)
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.hours < 100:
            raise InvalidConfig(f"hours must be >= 100, got {self.hours}")
        if self.noise_sd < 0 or self.flow_sd_musd < 0 or self.vol_noise_sd < 0:
            raise InvalidConfig("standard deviations must be non-negative")
        if self.vol_base <= 0 or self.vol_floor <= 0:
            raise InvalidConfig("vol_base and vol_floor must be positive")
        if self.init_price <= 0:
            raise InvalidConfig("init_price must be positive")
        if self.sub_frequency <= timedelta(0) or HOUR % self.sub_frequency:
            raise InvalidConfig("sub_frequency must divide one hour")
        _seconds(self.sub_frequency, "sub_frequency", error=InvalidConfig)
        vh, rest = divmod(self.vol_horizon, HOUR)
        if vh <= 0 or rest:
            raise InvalidConfig("vol_horizon must be a whole number of hours")
        if self.hours % vh != 0:
            raise InvalidConfig(f"hours={self.hours} is not a multiple of the {vh}h vol horizon")


def gen_flows(seq: np.random.SeedSequence, hours: int, flow_sd_musd: float,
              asset: Asset) -> FlowSeries:
    """Hourly flows whose net is i.i.d. normal(0, flow_sd) in US$ millions."""
    net_usd = np.random.default_rng(seq).normal(0.0, flow_sd_musd, size=hours) * 1e6
    ts = DEFAULT_START + 3600 * np.arange(hours, dtype=np.int64)
    return FlowSeries(ts, np.full(hours, asset.value, dtype="U4"),
                      np.maximum(net_usd, 0.0), np.maximum(-net_usd, 0.0))


def _hourly_net_musd(flows: FlowSeries, hours: int) -> np.ndarray:
    expected = DEFAULT_START + 3600 * np.arange(hours, dtype=np.int64)
    if len(flows) != hours or not np.array_equal(flows.timestamps, expected):
        raise InvalidConfig("flow series does not cover the generation grid")
    return flows.net_usd / 1e6


def _ar1(x: np.ndarray, b: float) -> np.ndarray:
    """``y[i] = x[i] + b*y[i-1]`` from ``y[-1] = 0``, in the order of
    operations of ``lfilter([1], [1, -b], x)``: the ``x[i-1] * 0.0`` term
    gives a zero result the sign ``lfilter`` gives it."""
    out, state = [], 0.0
    for xi in x.tolist():
        yi = state + xi
        out.append(yi)
        state = xi * 0.0 + b * yi
    return np.array(out, dtype=np.float64)


def _ar1_unless_zero(x: np.ndarray, b: float) -> np.ndarray:
    """``_ar1(x, b)``, or ``x`` itself for b == 0 on finite x: ``_ar1`` then
    returns x but for the sign of a zero, which the caller's ``1.0 + r`` or
    ``vol_base + v`` drops. (A non-finite x[i] makes ``_ar1``'s later terms
    NaN, so an overflowing plant reaches the closes, where ``gen_price_bars``
    refuses it.)"""
    if b == 0.0 and np.isfinite(x).all():
        return x
    return _ar1(x, b)


def gen_price_bars(seq: np.random.SeedSequence, cfg: SynthConfig,
                   flows: Mapping[Asset, FlowSeries],
                   return_betas: Mapping[Asset, float],
                   vol_betas: Mapping[Asset, float]) -> BarSeries:
    """Sub-hourly bars of ``cfg.asset``, planted on ``flows``. Refuses, with
    InvalidConfig, flows that do not cover the generation grid and plants
    that drive a close out of the finite positive floats. The opens and the
    closes are views of one buffer, the opens one bar behind."""
    rng = np.random.default_rng(seq)
    hours = cfg.hours
    sub_s = _seconds(cfg.sub_frequency, "sub_frequency")
    nsub = 3600 // sub_s
    vh = cfg.vol_horizon // HOUR
    net = {a: _hourly_net_musd(f, hours) for a, f in flows.items()}

    with np.errstate(all="ignore"):  # a plant that overflows is refused by its closes below
        # Hourly returns: AR(1) around the flow-driven drift, in a fixed draw order.
        eps = rng.normal(0.0, cfg.noise_sd, size=hours) if cfg.noise_sd > 0 else np.zeros(hours)
        driver = np.zeros(hours)
        driver[1:] = cfg.beta0 + eps[1:]
        for a, b in return_betas.items():
            if b != 0.0:
                driver[1:] += b * net[a][:-1]
        hourly_ret = np.maximum(_ar1_unless_zero(driver, cfg.beta2), _RETURN_CLIP)

        # Per-bucket sub-bar dispersion driven by the previous bucket's net flow.
        nb = hours // vh
        vol_drive = np.zeros(nb)
        if cfg.vol_noise_sd > 0:
            vol_drive[1:] += rng.normal(0.0, cfg.vol_noise_sd, size=nb - 1)
        for a, b in vol_betas.items():
            if b != 0.0:
                bucket_flow = net[a].reshape(nb, vh).sum(axis=1)
                vol_drive[1:] += b * bucket_flow[:-1]
        sigma = np.maximum(cfg.vol_base + _ar1_unless_zero(vol_drive, cfg.vol_ar),
                           cfg.vol_floor)
        sigma_hour = np.repeat(sigma, vh)

        # Sub-bars compound exactly to the hourly gross return. The draws become
        # the closes in place, in buf[1:], so buf[:-1] is the opens and no step
        # takes a second (hours, nsub) array but the log1p one, freed once c is
        # taken. Multiplication commutes, so the bits are those of
        # level * cumprod((g * c) * (1 + u)).
        buf = np.empty(hours * nsub + 1)
        buf[0] = cfg.init_price
        u = rng.standard_normal(out=buf[1:].reshape(hours, nsub))
        np.maximum(np.multiply(sigma_hour[:, None], u, out=u), _SUB_CLIP, out=u)
        g = (1.0 + hourly_ret) ** (1.0 / nsub)
        c = np.exp(-np.mean(np.log1p(u), axis=1))
        np.add(1.0, u, out=u)
        u *= (g * c)[:, None]

        level = np.empty(hours + 1)
        level[0] = cfg.init_price
        level[1:] = cfg.init_price * np.cumprod(1.0 + hourly_ret)
        np.multiply(level[:-1, None], np.cumprod(u, axis=1, out=u), out=u)
        opens, closes = buf[:-1], buf[1:]
        bad = np.flatnonzero(~(np.isfinite(closes) & (closes > 0)))

    ts = np.arange(DEFAULT_START, DEFAULT_START + sub_s * hours * nsub, sub_s, dtype=np.int64)
    if len(bad):
        raise InvalidConfig(f"the plants drive the {cfg.asset.value} close at "
                            f"{format_timestamp(ts[bad[0]])} to {closes[bad[0]]}, "
                            "not a finite positive price")
    return BarSeries(ts, opens, np.maximum(opens, closes), np.minimum(opens, closes),
                     closes, cfg.sub_frequency, asset=cfg.asset)


def gen_flows_and_prices(cfg: SynthConfig) -> tuple[FlowSeries, BarSeries]:
    """Flows and bars for one planted single-asset system."""
    flow_seq, bar_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    flows = gen_flows(flow_seq, cfg.hours, cfg.flow_sd_musd, cfg.asset)
    bars = gen_price_bars(bar_seq, cfg, {cfg.asset: flows},
                          return_betas={cfg.asset: cfg.beta1},
                          vol_betas={cfg.asset: cfg.vol_beta1})
    return flows, bars


# Cephes' ndtr.c coefficients, leading first. A leading 1.0 marks where
# Cephes calls p1evl, whose ``x + c[0]`` equals ``1.0 * x + c[0]``.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes' polevl: Horner's rule from the leading coefficient."""
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' erf for |x| < 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U)


def _erfc(z: np.ndarray) -> np.ndarray:
    """Cephes' erfc for z at or above 1/√2, infinity included: ``1 - erf``
    below 1, ``exp(-z²)`` times the P/Q rational below 8 and the R/S one
    above, and 0 once ``-z²`` is below ``-MAXLOG`` (past 27 it always is)."""
    y = np.zeros_like(z)
    near = z < 1.0
    y[near] = 1.0 - _erf(z[near])
    tail = np.flatnonzero(~near & (z < 27.0))
    w = z[tail]
    nz2 = -w * w
    keep = nz2 >= -_MAXLOG
    tail, w, nz2 = tail[keep], w[keep], nz2[keep]
    # math.exp, not np.exp: numpy's SIMD exp differs from libm's in the last bit.
    e = np.fromiter(map(math.exp, nz2.tolist()), np.float64, len(nz2))
    y[tail] = np.where(w < 8.0, e * _horner(w, _ERFC_P) / _horner(w, _ERFC_Q),
                       e * _horner(w, _ERFC_R) / _horner(w, _ERFC_S))
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of a float64 array, bit for bit
    ``scipy.special.ndtr``, which is Cephes' ndtr: ``0.5 + 0.5*erf(x)`` for
    ``x = a/√2`` below 1/√2 in size, else ``0.5*erfc(|x|)``, taken from 1
    for x > 0. NaN gives NaN."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    inner, outer = z < _SQRT1_2, z >= _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    y[outer] = 0.5 * _erfc(z[outer])
    upper = outer & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y


def black_scholes_call(index, strike, years, sigma):
    """(price, delta) of a European call under a zero-rate lognormal model,
    as floats or as arrays; at or past expiry, or at zero vol, the call is
    worth its intrinsic value. The normal CDF is ``_ndtr``, so the bits are
    those of ``scipy.special.ndtr`` without importing scipy. Refuses, with
    InvalidConfig, a vol whose half variance ``0.5 * sigma**2 * years``
    overflows: d1 and d2 would both be infinite, pricing the call at its
    intrinsic value, not at its limit ``index``."""
    index, strike, years, sigma = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (index, strike, years, sigma)))
    price = np.where(index > strike, index - strike, 0.0)
    delta = np.where(index > strike, 1.0, 0.0)
    live = (years > 0) & (sigma > 0)
    with np.errstate(over="ignore"):  # refused below
        sq = sigma[live] * np.sqrt(years[live])
        half_var = 0.5 * sq * sq
    overflow = np.flatnonzero(~np.isfinite(half_var))
    if len(overflow):
        i = overflow[0]
        raise InvalidConfig(f"implied vol {sigma[live][i]} over {years[live][i]} years "
                            "overflows the call's variance")
    index, strike = index[live], strike[live]
    # math.log, not np.log: the two differ in the last bit on some ratios.
    log_moneyness = np.array([math.log(r) for r in (index / strike).tolist()])
    d1 = (log_moneyness + half_var) / sq
    n1 = _ndtr(d1)
    price[live] = np.maximum(index * n1 - strike * _ndtr(d1 - sq), 0.0)
    delta[live] = np.minimum(np.maximum(n1, 0.0), 1.0)
    return price[()], delta[()]


def gen_option_chain(cfg: SynthConfig, bars: BarSeries, flows: FlowSeries) -> QuoteSeries:
    """Hourly call quotes on the configured strike/expiry grid.

    ``bars`` and ``flows`` are the market the chain is written on, as
    ``gen_flows_and_prices`` or ``gen_market`` drew it. Quotes are valued
    with the lognormal model at an implied vol that responds to the
    *previous* hour's net inflow, so an event-hour entry never embeds the
    event's own flow. Refuses, with InvalidConfig, an implied vol too large
    for ``black_scholes_call`` to price.
    """
    if cfg.chain is None:
        raise InvalidConfig("config has no option_chain_spec")
    spec = cfg.chain
    nsub = HOUR // cfg.sub_frequency
    if len(bars) != cfg.hours * nsub:
        raise InvalidConfig("bars do not cover the generation grid")
    expiry_s = _seconds(spec.expiry_every, "expiry_every")
    life_s = _seconds(spec.lifetime, "lifetime")
    net = _hourly_net_musd(flows, cfg.hours)

    # Hour k quotes at t = DEFAULT_START + (k+1)h: the close of the last sub-bar of
    # hour k, at an implied vol that responds to hour k's net inflow.
    t = DEFAULT_START + 3600 * np.arange(1, cfg.hours + 1, dtype=np.int64)
    index = bars.close.reshape(cfg.hours, nsub)[:, -1]
    with np.errstate(over="ignore"):  # an infinite vol is refused where it is priced
        iv = np.maximum(spec.iv_base + spec.iv_flow_beta * net, IV_FLOOR)

    # Expiry e is quoted at the hours t in [e - lifetime, e) and its strikes
    # are set at the first of them.
    expiries = np.arange(DEFAULT_START + expiry_s, t[-1] + expiry_s + 1, expiry_s)
    first, stop = np.searchsorted(t, expiries - life_s), np.searchsorted(t, expiries)
    hour, strike, expiry = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.int64)]
    for e, a, b in zip(expiries.tolist(), first.tolist(), stop.tolist()):
        if a == b:
            continue
        # Halve the step, for this expiry only, until no two rungs round
        # onto one strike (rungs repeated in moneyness aside).
        raw, step = np.array(spec.moneyness) * index[a], STRIKE_STEP
        rungs = len(_distinct(raw))
        while len(strikes := _distinct(np.round(raw / step) * step)) < rungs:
            step /= 2
        hour.append(np.repeat(np.arange(a, b), len(strikes)))
        strike.append(np.tile(strikes, b - a))
        expiry.append(np.full((b - a) * len(strikes), e, dtype=np.int64))

    # One row per (hour, strike, expiry), in that order.
    hour, strike, expiry = map(np.concatenate, (hour, strike, expiry))
    order = np.lexsort((expiry, strike, hour))
    hour, strike, expiry = hour[order], strike[order], expiry[order]
    t, index, sigma = t[hour], index[hour], iv[hour]
    price, delta = black_scholes_call(index, strike, (expiry - t) / YEAR_SECONDS, sigma)
    return QuoteSeries(t, strike, expiry, price / index, index, sigma, delta)


# ---------------------------------------------------------------------------
# Multi-asset composition for grid runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPlants:
    """Planted coefficients for the four-pair heatmap fixture.

    What the plants do not set is fixed: hourly net flows have standard
    deviations of US$100M (USDT), US$1M (ETH) and US$100 (BTC), and both
    assets' sub-bars use ``SynthConfig``'s defaults for every setting the
    plants do not name, such as ``vol_base`` and ``vol_floor``. A plant is
    checked to be finite here, against its range where ``gen_market``
    passes it to a ``SynthConfig``, and by the closes it drives in
    ``gen_price_bars``.
    """

    usdt_eth_return: float = 0.0
    eth_eth_return: float = 0.0
    usdt_btc_return: float = 0.0
    btc_btc_vol: float = 0.0
    return_ar: float = 0.0
    noise_sd: float = 0.01

    def __post_init__(self):
        _check_finite(self)


def gen_market(seed: int, hours: int, plants: GridPlants = GridPlants(),
               sub_frequency: timedelta = DEFAULT_SUB_FREQUENCY) -> MarketData:
    """Flows for USDT/ETH/BTC and bars for ETH/BTC with the planted relations."""
    eth_cfg = SynthConfig(seed=seed, hours=hours, beta2=plants.return_ar,
                          noise_sd=plants.noise_sd, sub_frequency=sub_frequency)
    seqs = np.random.SeedSequence(seed).spawn(5)
    flows = {
        Asset.USDT: gen_flows(seqs[0], hours, 100.0, Asset.USDT),
        Asset.ETH: gen_flows(seqs[1], hours, 1.0, Asset.ETH),
        Asset.BTC: gen_flows(seqs[2], hours, 1e-4, Asset.BTC),
    }
    bars = {
        Asset.ETH: gen_price_bars(
            seqs[3], eth_cfg, flows,
            return_betas={Asset.USDT: plants.usdt_eth_return,
                          Asset.ETH: plants.eth_eth_return},
            vol_betas={}),
        Asset.BTC: gen_price_bars(
            seqs[4], replace(eth_cfg, init_price=30000.0, asset=Asset.BTC), flows,
            return_betas={Asset.USDT: plants.usdt_btc_return},
            vol_betas={Asset.BTC: plants.btc_btc_vol}),
    }
    return MarketData(flows=flows, bars=bars)
