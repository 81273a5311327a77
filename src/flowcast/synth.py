"""Deterministic synthetic market data with planted relations.

Serves as the verification oracle for the whole pipeline: hourly net
inflows are i.i.d. normal, next-hour returns follow

    r[i] = b0 + sum_a beta_a * netinflow_a[i-1] + b2 * r[i-1] + eps[i]

and sub-bar return dispersion inside each volatility bucket scales as
``vol_base + sum_a vol_beta_a * netinflow_a(previous bucket)``, floored
at a small positive constant. Sub-bars are constructed to compound
*exactly* to the planted hourly return, so the return and volatility
channels can be planted independently. Both AR(1) terms (``b2``, and
``vol_ar`` on the dispersion) run ``y[i] = x[i] + b * y[i-1]`` from rest
in Python floats, bit for bit ``scipy.signal.lfilter([1], [1, -b], x)``.

Randomness comes from numpy's PCG64 bit generator seeded through
``SeedSequence(seed)``; every array is drawn in a fixed order, so a seed
pins the full dataset byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import timedelta
from typing import Mapping

import numpy as np

from .errors import InvalidConfig
from .ingest import Asset, BarSeries, FlowSeries, QuoteSeries
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


@dataclass(frozen=True)
class OptionChainSpec:
    """Strike/expiry grid of the synthetic call chain, quoted every hour.

    Strikes are the moneyness rungs rounded to ``STRIKE_STEP``, and the
    implied vol is floored at ``IV_FLOOR``.
    """

    moneyness: tuple[float, ...] = (0.98, 1.0, 1.02, 1.05)
    expiry_every: timedelta = timedelta(hours=24)
    lifetime: timedelta = timedelta(hours=48)
    iv_base: float = 0.8
    iv_flow_beta: float = 0.0   # implied-vol response to last hour's net inflow


@dataclass(frozen=True)
class SynthConfig:
    """One planted (net inflow -> same asset) system plus its option chain."""

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
    start: int = DEFAULT_START
    chain: OptionChainSpec | None = None

    def validate(self) -> None:
        if self.hours < 100:
            raise InvalidConfig(f"hours must be >= 100, got {self.hours}")
        if self.noise_sd < 0 or self.flow_sd_musd < 0 or self.vol_noise_sd < 0:
            raise InvalidConfig("standard deviations must be non-negative")
        if self.vol_base <= 0 or self.vol_floor <= 0:
            raise InvalidConfig("vol_base and vol_floor must be positive")
        if self.init_price <= 0:
            raise InvalidConfig("init_price must be positive")
        sub_s = int(self.sub_frequency.total_seconds())
        if sub_s <= 0 or 3600 % sub_s != 0:
            raise InvalidConfig("sub_frequency must divide one hour")
        vh = self.vol_horizon.total_seconds()
        if vh <= 0 or vh % 3600 != 0:
            raise InvalidConfig("vol_horizon must be a whole number of hours")
        if self.start % 3600 != 0:
            raise InvalidConfig("start must be hour-aligned")


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_seq))


def gen_flows(seed: int | np.random.SeedSequence, hours: int, flow_sd_musd: float,
              asset: Asset, start: int = DEFAULT_START) -> FlowSeries:
    """Hourly flows whose net is i.i.d. normal(0, flow_sd) in US$ millions."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = _rng(seq)
    net_usd = rng.normal(0.0, flow_sd_musd, size=hours) * 1e6
    ts = start + 3600 * np.arange(hours, dtype=np.int64)
    return FlowSeries(ts, np.full(hours, asset.value, dtype="U4"),
                      np.maximum(net_usd, 0.0), np.maximum(-net_usd, 0.0))


def _hourly_net_musd(flows: FlowSeries, hours: int, start: int) -> np.ndarray:
    expected = start + 3600 * np.arange(hours, dtype=np.int64)
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


def gen_price_bars(seed: int | np.random.SeedSequence, hours: int,
                   flows: Mapping[Asset, FlowSeries],
                   return_betas: Mapping[Asset, float],
                   vol_betas: Mapping[Asset, float],
                   beta0: float = 0.0, beta2: float = 0.0, noise_sd: float = 0.01,
                   vol_base: float = 0.01, vol_floor: float = 0.002,
                   vol_horizon: timedelta = HOUR, vol_ar: float = 0.0,
                   vol_noise_sd: float = 0.0,
                   sub_frequency: timedelta = DEFAULT_SUB_FREQUENCY,
                   init_price: float = 2000.0, start: int = DEFAULT_START,
                   asset: Asset | None = None) -> BarSeries:
    """Sub-hourly bars with planted return and volatility responses to flows."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = _rng(seq)
    sub_s = int(sub_frequency.total_seconds())
    nsub = 3600 // sub_s
    vh = int(vol_horizon.total_seconds()) // 3600
    if hours % vh != 0:
        raise InvalidConfig(f"hours={hours} is not a multiple of the {vh}h vol horizon")
    net = {a: _hourly_net_musd(f, hours, start) for a, f in flows.items()}

    # Hourly returns: AR(1) around the flow-driven drift, in a fixed draw order.
    eps = rng.normal(0.0, noise_sd, size=hours) if noise_sd > 0 else np.zeros(hours)
    driver = np.zeros(hours)
    driver[1:] = beta0 + eps[1:]
    for a, b in return_betas.items():
        if b != 0.0:
            driver[1:] += b * net[a][:-1]
    hourly_ret = np.maximum(_ar1(driver, beta2), _RETURN_CLIP)

    # Per-bucket sub-bar dispersion driven by the previous bucket's net flow.
    nb = hours // vh
    vol_drive = np.zeros(nb)
    if vol_noise_sd > 0:
        vol_drive[1:] += rng.normal(0.0, vol_noise_sd, size=nb - 1)
    for a, b in vol_betas.items():
        if b != 0.0:
            bucket_flow = net[a].reshape(nb, vh).sum(axis=1)
            vol_drive[1:] += b * bucket_flow[:-1]
    sigma = np.maximum(vol_base + _ar1(vol_drive, vol_ar), vol_floor)
    sigma_hour = np.repeat(sigma, vh)

    # Sub-bars compound exactly to the hourly gross return.
    z = rng.standard_normal(size=(hours, nsub))
    u = np.maximum(sigma_hour[:, None] * z, _SUB_CLIP)
    g = (1.0 + hourly_ret) ** (1.0 / nsub)
    c = np.exp(-np.mean(np.log1p(u), axis=1))
    factors = (g * c)[:, None] * (1.0 + u)

    level = np.empty(hours + 1)
    level[0] = init_price
    level[1:] = init_price * np.cumprod(1.0 + hourly_ret)
    closes = (level[:-1, None] * np.cumprod(factors, axis=1)).ravel()
    opens = np.concatenate(([init_price], closes[:-1]))

    ts = start + sub_s * np.arange(hours * nsub, dtype=np.int64)
    return BarSeries(ts, opens, np.maximum(opens, closes), np.minimum(opens, closes),
                     closes, sub_frequency, asset=asset)


def gen_flows_and_prices(cfg: SynthConfig) -> tuple[FlowSeries, BarSeries]:
    """Flows and bars for one planted single-asset system."""
    cfg.validate()
    flow_seq, bar_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    flows = gen_flows(flow_seq, cfg.hours, cfg.flow_sd_musd, cfg.asset, cfg.start)
    bars = gen_price_bars(bar_seq, cfg.hours, {cfg.asset: flows},
                          return_betas={cfg.asset: cfg.beta1},
                          vol_betas={cfg.asset: cfg.vol_beta1},
                          beta0=cfg.beta0, beta2=cfg.beta2, noise_sd=cfg.noise_sd,
                          vol_base=cfg.vol_base, vol_floor=cfg.vol_floor,
                          vol_horizon=cfg.vol_horizon, vol_ar=cfg.vol_ar,
                          vol_noise_sd=cfg.vol_noise_sd,
                          sub_frequency=cfg.sub_frequency,
                          init_price=cfg.init_price, start=cfg.start,
                          asset=cfg.asset)
    return flows, bars


def black_scholes_call(index, strike, years, sigma):
    """(price, delta) of a European call under a zero-rate lognormal model,
    as floats or as arrays; at or past expiry, or at zero vol, the call is
    worth its intrinsic value."""
    # Deferred: importing scipy costs most of a short command's run time.
    from scipy.special import ndtr

    index, strike, years, sigma = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (index, strike, years, sigma)))
    price = np.where(index > strike, index - strike, 0.0)
    delta = np.where(index > strike, 1.0, 0.0)
    live = (years > 0) & (sigma > 0)
    index, strike, sq = index[live], strike[live], sigma[live] * np.sqrt(years[live])
    # math.log, not np.log: the two differ in the last bit on some ratios.
    log_moneyness = np.array([math.log(r) for r in (index / strike).tolist()])
    d1 = (log_moneyness + 0.5 * sq * sq) / sq
    n1 = ndtr(d1)
    price[live] = np.maximum(index * n1 - strike * ndtr(d1 - sq), 0.0)
    delta[live] = np.minimum(np.maximum(n1, 0.0), 1.0)
    return price[()], delta[()]


def gen_option_chain(cfg: SynthConfig, bars: BarSeries, flows: FlowSeries) -> QuoteSeries:
    """Hourly call quotes on the configured strike/expiry grid.

    ``bars`` and ``flows`` are the market the chain is written on, as
    ``gen_flows_and_prices`` or ``gen_market`` drew it. Quotes are valued
    with the lognormal model at an implied vol that responds to the
    *previous* hour's net inflow, so an event-hour entry never embeds the
    event's own flow.
    """
    cfg.validate()
    if cfg.chain is None:
        raise InvalidConfig("config has no option_chain_spec")
    spec = cfg.chain
    nsub = 3600 // int(cfg.sub_frequency.total_seconds())
    if len(bars) != cfg.hours * nsub:
        raise InvalidConfig("bars do not cover the generation grid")
    expiry_s = int(spec.expiry_every.total_seconds())
    life_s = int(spec.lifetime.total_seconds())
    if expiry_s <= 0 or life_s <= 0:
        raise InvalidConfig("expiry_every and lifetime must be positive")
    if spec.iv_base <= 0:
        raise InvalidConfig("iv_base must be positive")
    net = _hourly_net_musd(flows, cfg.hours, cfg.start)

    # Hour k quotes at t = start + (k+1)h: the close of the last sub-bar of
    # hour k, at an implied vol that responds to hour k's net inflow.
    t = cfg.start + 3600 * np.arange(1, cfg.hours + 1, dtype=np.int64)
    index = bars.close.reshape(cfg.hours, nsub)[:, -1]
    iv = np.maximum(spec.iv_base + spec.iv_flow_beta * net, IV_FLOOR)

    # Expiry e is quoted at the hours t in [e - lifetime, e) and its strikes
    # are set at the first of them.
    expiries = np.arange(cfg.start + expiry_s, t[-1] + expiry_s + 1, expiry_s)
    first, stop = np.searchsorted(t, expiries - life_s), np.searchsorted(t, expiries)
    hour, strike, expiry = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.int64)]
    for e, a, b in zip(expiries.tolist(), first.tolist(), stop.tolist()):
        if a == b:
            continue
        # Halve the step, for this expiry only, until no two rungs round
        # onto one strike (rungs repeated in moneyness aside).
        raw, step = np.array(spec.moneyness) * index[a], STRIKE_STEP
        rungs = len(np.unique(raw))
        while len(strikes := np.unique(np.round(raw / step) * step)) < rungs:
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
    assets' sub-bars use ``gen_price_bars``' default ``vol_base`` and
    ``vol_floor``.
    """

    usdt_eth_return: float = 0.0
    eth_eth_return: float = 0.0
    usdt_btc_return: float = 0.0
    btc_btc_vol: float = 0.0
    return_ar: float = 0.0
    noise_sd: float = 0.01


def gen_market(seed: int, hours: int, plants: GridPlants = GridPlants(),
               start: int = DEFAULT_START,
               sub_frequency: timedelta = DEFAULT_SUB_FREQUENCY) -> MarketData:
    """Flows for USDT/ETH/BTC and bars for ETH/BTC with the planted relations."""
    seqs = np.random.SeedSequence(seed).spawn(5)
    flows = {
        Asset.USDT: gen_flows(seqs[0], hours, 100.0, Asset.USDT, start),
        Asset.ETH: gen_flows(seqs[1], hours, 1.0, Asset.ETH, start),
        Asset.BTC: gen_flows(seqs[2], hours, 1e-4, Asset.BTC, start),
    }
    common = dict(beta0=0.0, beta2=plants.return_ar, noise_sd=plants.noise_sd,
                  sub_frequency=sub_frequency, start=start)
    bars = {
        Asset.ETH: gen_price_bars(
            seqs[3], hours, flows,
            return_betas={Asset.USDT: plants.usdt_eth_return,
                          Asset.ETH: plants.eth_eth_return},
            vol_betas={}, init_price=2000.0, asset=Asset.ETH, **common),
        Asset.BTC: gen_price_bars(
            seqs[4], hours, flows,
            return_betas={Asset.USDT: plants.usdt_btc_return},
            vol_betas={Asset.BTC: plants.btc_btc_vol},
            init_price=30000.0, asset=Asset.BTC, **common),
    }
    return MarketData(flows=flows, bars=bars)
