"""Command-line front end: ingestion checks, regression grids, events,
option backtests, and the synthetic-data generator.

Exit codes: 0 success, 1 I/O failure, 2 input/validation failure,
3 estimation failure (no command exits 3 today: ``regress`` records a cell
it cannot estimate in the grid). ``FLOWCAST_LOG`` sets the log level; all
other configuration comes from flags or an optional ``key=value`` config
file (flags win on conflict). Outputs are deterministic: re-running a command
on identical inputs rewrites identical bytes.
"""

from __future__ import annotations

import logging
import os
import sys
from datetime import timedelta
from pathlib import Path

import click
import numpy as np

from . import events as events_mod
from . import ingest, options, regress, synth
from .errors import EstimationError, FlowcastError, ValidationError
from .ingest import Asset
from .series import net_inflows

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_hours_list(ctx, param, text: str) -> list[timedelta]:
    """The ``--horizons`` callback: a list of positive whole hours."""
    try:
        hours = [int(h) for h in text.split(",") if h.strip()]
        if min(hours, default=1) <= 0:
            raise ValueError
    except ValueError:
        raise click.UsageError(f"bad horizon list {text!r}; expected e.g. '1,2,3,4,6'")
    return [timedelta(hours=h) for h in hours]


def _parse_pairs(text: str) -> list[tuple[Asset, Asset]]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            pred, resp = item.split(":")
            pairs.append((Asset(pred.strip()), Asset(resp.strip())))
        except ValueError:
            raise click.UsageError(f"bad pair {item!r}; expected e.g. 'USDT:ETH'")
    if not pairs:
        raise click.UsageError("no pairs given")
    return pairs


def _parse_list(text: str, allowed: tuple[str, ...], what: str) -> list[str]:
    out = [item.strip() for item in text.split(",") if item.strip()]
    for item in out:
        if item not in allowed:
            raise click.UsageError(f"bad {what} {item!r}; allowed: {', '.join(allowed)}")
    if not out:
        raise click.UsageError(f"no {what} given")
    return out


def _read_text(path: str) -> str:
    """A whole UTF-8 input file; a byte that is not UTF-8 is a validation error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8") from None


def _load_config(path: str) -> dict:
    """Flat ``section.key = value`` lines -> click default map. A section
    must name a command and a key one of its parameters."""
    defaults: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise click.UsageError(
                f"{path}:{lineno}: expected 'section.key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        section, name = (part.strip() for part in key.split(".", 1))
        name = name.replace("-", "_")
        command = cli.commands.get(section)
        if command is None:
            raise click.UsageError(f"{path}:{lineno}: unknown section {section!r} in {key!r}")
        if name not in {param.name for param in command.params}:
            raise click.UsageError(
                f"{path}:{lineno}: unknown key {key!r}; {section} has no option {name!r}")
        defaults.setdefault(section, {})[name] = value
    return defaults


class _InputFile(click.Path):
    """An input file, opened once while the arguments are parsed: a missing
    or unreadable file raises OSError, so ``main`` exits with EXIT_IO before
    any command checks its other arguments."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        with open(path, "rb"):
            pass
        return path


_in_path = _InputFile(dir_okay=False)
_out_dir = click.Path(file_okay=False)


@click.group()
@click.option("--config", type=_in_path, default=None,
              help="Optional key=value config file; flags take precedence.")
@click.pass_context
def cli(ctx, config):
    if config:
        ctx.default_map = _load_config(config)


def _load_market(flows_path: str, bars_paths: dict[Asset, str],
                 bar_frequency: timedelta) -> regress.MarketData:
    all_flows = ingest.parse_flows(flows_path)
    flows = {a: all_flows.select(a) for a in all_flows.asset_set()}
    bars = {}
    for asset, path in bars_paths.items():
        series, gaps = ingest.parse_bars(path, bar_frequency, asset=asset)
        if gaps:
            logger.info("%s bars: %d gap(s)", asset.value, len(gaps))
        bars[asset] = series
    return regress.MarketData(flows=flows, bars=bars)


@cli.command("ingest-check")
@click.option("--flows", type=_in_path, default=None)
@click.option("--bars", type=_in_path, default=None)
@click.option("--bar-frequency-minutes", type=int, default=5, show_default=True)
@click.option("--options", "options_path", type=_in_path, default=None)
def ingest_check(flows, bars, bar_frequency_minutes, options_path):
    """Parse and validate input CSVs, printing a summary per file."""
    if not any([flows, bars, options_path]):
        raise click.UsageError("nothing to check; pass --flows, --bars or --options")
    if flows:
        series = ingest.parse_flows(flows)
        for asset in series.asset_set():
            sub = series.select(asset)
            click.echo(f"flows {asset.value}: {len(sub)} rows, "
                       f"{ingest.format_timestamp(sub.timestamps[0])} .. "
                       f"{ingest.format_timestamp(sub.timestamps[-1])}")
    if bars:
        series, gaps = ingest.parse_bars(bars, timedelta(minutes=bar_frequency_minutes))
        click.echo(f"bars: {len(series)} rows, {len(gaps)} gap(s)")
    if options_path:
        quotes = ingest.parse_option_quotes(options_path)
        _, ids = quotes.instruments()
        click.echo(f"options: {len(quotes)} quotes, {ids.max(initial=-1) + 1} instruments")


@cli.command("regress")
@click.option("--flows", type=_in_path, required=True)
@click.option("--bars-eth", type=_in_path, default=None)
@click.option("--bars-btc", type=_in_path, default=None)
@click.option("--bar-frequency-minutes", type=int, default=5, show_default=True)
@click.option("--horizons", default="1,2,3,4,6", show_default=True,
              callback=_parse_hours_list)
@click.option("--pairs", default="USDT:ETH,ETH:ETH,USDT:BTC,BTC:BTC", show_default=True)
@click.option("--targets", default="return,volatility", show_default=True)
@click.option("--models", default="single,double", show_default=True)
@click.option("--daily-weekly", is_flag=True,
              help="Also write the 24h/168h volatility grid.")
@click.option("--hac-lags", type=click.IntRange(min=0), default=None,
              help="Newey-West lag count; omit for classical standard errors.")
@click.option("--min-obs", type=int, default=regress.DEFAULT_MIN_OBS, show_default=True)
@click.option("--out", type=_out_dir, required=True)
def cmd_regress(flows, bars_eth, bars_btc, bar_frequency_minutes, horizons, pairs,
                targets, models, daily_weekly, hac_lags, min_obs, out):
    """Run the predictive-regression grid and write heatmap JSON + TSV."""
    pair_list = _parse_pairs(pairs)
    bars_paths = {}
    if bars_eth:
        bars_paths[Asset.ETH] = bars_eth
    if bars_btc:
        bars_paths[Asset.BTC] = bars_btc
    needed = {resp for _, resp in pair_list}
    missing = sorted(a.value for a in needed if a not in bars_paths)
    if missing:
        raise ValidationError(f"no bars supplied for response asset(s): {', '.join(missing)}")

    data = _load_market(flows, bars_paths, timedelta(minutes=bar_frequency_minutes))
    cells = regress.run_grid(
        data, horizons=horizons, pairs=pair_list,
        targets=_parse_list(targets, (regress.TARGET_RETURN, regress.TARGET_VOLATILITY),
                            "target"),
        models=_parse_list(models, (regress.MODEL_SINGLE, regress.MODEL_DOUBLE), "model"),
        min_obs=min_obs, hac_lags=hac_lags)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "grid.json", regress.grid_to_json(cells))
    _write(out_dir / "grid.tsv", regress.grid_to_tsv(cells))
    failed = sum(1 for c in cells if c.error is not None)
    click.echo(f"wrote {len(cells)} cells ({failed} failed) to {out_dir}")

    if daily_weekly:
        dw = regress.daily_weekly_grid(data, pairs=pair_list, min_obs=min_obs,
                                       hac_lags=hac_lags)
        _write(out_dir / "grid_daily_weekly.json", regress.grid_to_json(dw))
        _write(out_dir / "grid_daily_weekly.tsv", regress.grid_to_tsv(dw))
        click.echo(f"wrote {len(dw)} daily/weekly cells to {out_dir}")


@cli.command("events")
@click.option("--flows", type=_in_path, required=True)
@click.option("--asset", type=click.Choice([a.value for a in Asset]), default="ETH",
              show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--years", default=None, help="Comma-separated years; default: all.")
@click.option("--most-negative", is_flag=True, help="Rank extreme net outflows instead.")
@click.option("--bars", type=_in_path, default=None,
              help="Bars for case-study windows (with --window-*-hours).")
@click.option("--bar-frequency-minutes", type=int, default=5, show_default=True)
@click.option("--window-pre-hours", type=click.IntRange(min=0), default=72, show_default=True)
@click.option("--window-post-hours", type=click.IntRange(min=0), default=48, show_default=True)
@click.option("--out", type=_out_dir, required=True)
def cmd_events(flows, asset, k, years, most_negative, bars, bar_frequency_minutes,
               window_pre_hours, window_post_hours, out):
    """Detect the k most extreme net-inflow hours per year; export CSVs."""
    flow_series = ingest.parse_flows(flows).select(Asset(asset))
    hourly = net_inflows(flow_series, timedelta(hours=1))
    year_set = None
    if years:
        try:
            year_set = {int(y) for y in years.split(",") if y.strip()}
        except ValueError:
            raise click.UsageError(f"bad year list {years!r}")
    hits = events_mod.detect_extremes(hourly, k, years=year_set,
                                      most_negative=most_negative)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "events.csv", events_mod.events_to_csv(hits))
    hit_years = events_mod.utc_years(hourly.timestamps)
    for year in sorted({h.year for h in hits}):
        n = int((hit_years == year).sum())
        pct = events_mod.threshold_percentile(k, n)
        click.echo(f"{year}: {min(k, n)} hits over {n} hours "
                   f"(threshold percentile {100 * pct:.2f}%)")

    if bars:
        bar_series, _ = ingest.parse_bars(bars, timedelta(minutes=bar_frequency_minutes),
                                          asset=Asset(asset))
        for i, hit in enumerate(hits, start=1):
            try:
                window = events_mod.extract_window(
                    hit, hourly, bar_series,
                    pre=timedelta(hours=window_pre_hours),
                    post=timedelta(hours=window_post_hours))
            except FlowcastError as exc:
                logger.warning("skipping window %d (%s): %s", i, hit.timestamp, exc)
                continue
            flow_csv, price_csv = events_mod.window_track_csvs(window)
            _write(out_dir / f"window_{i:02d}_flows.csv", flow_csv)
            _write(out_dir / f"window_{i:02d}_prices.csv", price_csv)
    click.echo(f"wrote {len(hits)} events to {out_dir}")


@cli.command("backtest")
@click.option("--flows", type=_in_path, required=True)
@click.option("--options", "options_path", type=_in_path, required=True)
@click.option("--asset", type=click.Choice([a.value for a in Asset]), default="ETH",
              show_default=True)
@click.option("--pct", type=float, default=0.10, show_default=True)
@click.option("--legs", default="top,bottom", show_default=True)
@click.option("--side", type=click.Choice([options.SIDE_SELL, options.SIDE_BUY]),
              default=options.SIDE_SELL, show_default=True)
@click.option("--holding-hours", type=int, default=1, show_default=True)
@click.option("--premium-rate", type=float, default=0.0003, show_default=True)
@click.option("--hedge-rate", type=float, default=0.0005, show_default=True)
@click.option("--half-spread", type=float, default=0.0005, show_default=True)
@click.option("--slippage", type=float, default=0.0, show_default=True)
@click.option("--wtl-mode", type=click.Choice([options.WTL_COUNTS, options.WTL_PNL]),
              default=options.WTL_COUNTS, show_default=True)
@click.option("--out", type=_out_dir, required=True)
def cmd_backtest(flows, options_path, asset, pct, legs, side, holding_hours,
                 premium_rate, hedge_rate, half_spread, slippage, wtl_mode, out):
    """Percentile-triggered call backtest; writes the bucketed report TSV."""
    flow_series = ingest.parse_flows(flows).select(Asset(asset))
    hourly = net_inflows(flow_series, timedelta(hours=1))
    quotes = ingest.parse_option_quotes(options_path)
    costs = options.CostParams(premium_rate=premium_rate, hedge_rate=hedge_rate,
                               half_spread=half_spread, slippage=slippage)
    leg_list = _parse_list(legs, (options.LEG_TOP, options.LEG_BOTTOM), "leg")

    stats: dict = {}
    for leg in leg_list:
        leg_stats, diag = options.run_percentile_backtest(
            hourly, quotes, pct, leg, side, costs,
            options.table_buckets(leg, pct),
            holding=timedelta(hours=holding_hours), wtl_mode=wtl_mode)
        stats.update(leg_stats)
        click.echo(f"{leg}: {diag.events} events, {diag.trades} trades, "
                   f"{diag.unmatched_entries} entry misses, "
                   f"{diag.unmatched_exits} exit misses")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "report.tsv", options.report_to_tsv(stats))
    click.echo(f"wrote report to {out_dir / 'report.tsv'}")


@cli.command("synth")
@click.option("--seed", type=int, required=True)
@click.option("--hours", type=int, default=2000, show_default=True)
@click.option("--usdt-eth-ret", type=float, default=1.1e-5, show_default=True)
@click.option("--eth-eth-ret", type=float, default=-0.017, show_default=True)
@click.option("--usdt-btc-ret", type=float, default=6.3e-6, show_default=True)
@click.option("--btc-btc-vol", type=float, default=-17.0, show_default=True)
@click.option("--return-ar", type=float, default=-0.03, show_default=True)
@click.option("--noise-sd", type=float, default=0.01, show_default=True)
@click.option("--sub-frequency-minutes", type=int, default=5, show_default=True)
@click.option("--iv-base", type=float, default=0.8, show_default=True)
@click.option("--iv-flow-beta", type=float, default=-0.05, show_default=True)
@click.option("--out", type=_out_dir, required=True)
def cmd_synth(seed, hours, usdt_eth_ret, eth_eth_ret, usdt_btc_ret, btc_btc_vol,
              return_ar, noise_sd, sub_frequency_minutes, iv_base, iv_flow_beta, out):
    """Write a planted synthetic dataset in the ingestion CSV schemas."""
    sub = timedelta(minutes=sub_frequency_minutes)
    chain_cfg = synth.SynthConfig(
        seed=seed, hours=hours, noise_sd=noise_sd, sub_frequency=sub,
        chain=synth.OptionChainSpec(iv_base=iv_base, iv_flow_beta=iv_flow_beta))
    chain_cfg.validate()  # before drawing, so a bad flag writes nothing
    plants = synth.GridPlants(
        usdt_eth_return=usdt_eth_ret, eth_eth_return=eth_eth_ret,
        usdt_btc_return=usdt_btc_ret, btc_btc_vol=btc_btc_vol,
        return_ar=return_ar, noise_sd=noise_sd)
    market = synth.gen_market(seed, hours, plants, sub_frequency=sub)
    quotes = synth.gen_option_chain(chain_cfg, market.bars[Asset.ETH],
                                    market.flows[Asset.ETH])

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_list = [market.flows[a] for a in (Asset.BTC, Asset.ETH, Asset.USDT)]
    all_flows = ingest.FlowSeries(
        np.concatenate([s.timestamps for s in series_list]),
        np.concatenate([s.assets for s in series_list]),
        np.concatenate([s.inflow_usd for s in series_list]),
        np.concatenate([s.outflow_usd for s in series_list]))
    _write(out_dir / "flows.csv", ingest.flows_to_csv(all_flows))
    _write(out_dir / "bars_eth.csv", ingest.bars_to_csv(market.bars[Asset.ETH]))
    _write(out_dir / "bars_btc.csv", ingest.bars_to_csv(market.bars[Asset.BTC]))
    _write(out_dir / "options.csv", ingest.quotes_to_csv(quotes))
    click.echo(f"wrote synthetic dataset ({hours}h, seed {seed}) to {out_dir}")


@cli.command("report")
@click.option("--grid", type=_in_path, required=True,
              help="A grid.json produced by the regress command.")
@click.option("--out", type=_out_dir, required=True)
def cmd_report(grid, out):
    """Re-render a stored grid JSON as the heatmap TSV."""
    cells = regress.grid_from_json(_read_text(grid), source=grid)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "grid.tsv", regress.grid_to_tsv(cells))
    click.echo(f"rendered {len(cells)} cells to {out_dir / 'grid.tsv'}")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FLOWCAST_LOG", "WARNING").upper()
    if not isinstance(getattr(logging, level, None), int):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except EstimationError as exc:
        click.echo(f"estimation error: {exc}", err=True)
        return EXIT_ESTIMATION
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except FlowcastError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
