import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import jsonschema
import pytest

import flowcast
from flowcast import ingest, options, regress, synth
from flowcast.cli import cli, main

GRID_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "pair": {
                "type": "array",
                "items": {"enum": ["BTC", "ETH", "USDT"]},
                "minItems": 2, "maxItems": 2,
            },
            "target": {"enum": ["return", "volatility"]},
            "horizon_hours": {"type": "number"},
            "model": {"enum": ["single", "double"]},
            "beta1": {"type": ["number", "null"]},
            "stars": {"enum": ["", "*", "**", "***"]},
            "sign": {"enum": ["positive", "negative", "insignificant"]},
            "error": {"type": "string"},
        },
        "required": ["pair", "target", "horizon_hours", "model", "beta1",
                     "stars", "sign"],
        "additionalProperties": False,
    },
}


def digest_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--seed", "42", "--hours", "400", "--out", str(out)])
    assert code == 0
    return out


def test_synth_writes_dataset(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert names == {"flows.csv", "bars_eth.csv", "bars_btc.csv", "options.csv"}


def test_synth_is_deterministic(dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "--seed", "42", "--hours", "400", "--out", str(again)]) == 0
    assert digest_dir(dataset) == digest_dir(again)
    other = tmp_path / "other"
    assert main(["synth", "--seed", "43", "--hours", "400", "--out", str(other)]) == 0
    assert digest_dir(dataset) != digest_dir(other)


def test_ingest_check(dataset, capsys):
    code = main(["ingest-check", "--flows", str(dataset / "flows.csv"),
                 "--bars", str(dataset / "bars_eth.csv"),
                 "--options", str(dataset / "options.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "flows ETH: 400 rows" in out
    assert "bars: 4800 rows, 0 gap(s)" in out
    assert "options:" in out


def test_a_far_bar_adds_its_gaps_and_leaves_the_grid(dataset, tmp_path, capsys):
    # One ETH bar ten years after the last: the gap count grows by the span,
    # and no window, hence no grid cell, changes.
    lines = (dataset / "bars_eth.csv").read_text().splitlines(keepends=True)
    last = ingest.parse_timestamp(lines[-1].split(",")[0])
    far = last + 10 * 365 * 86400
    far_bars = tmp_path / "bars_eth.csv"
    far_bars.write_text("".join(lines) + ingest.format_timestamp(far)
                        + lines[-1][lines[-1].index(","):])
    assert main(["ingest-check", "--bars", str(far_bars)]) == 0
    first = ingest.parse_timestamp(lines[1].split(",")[0])
    rows = len(lines)  # the header's line counts the far bar
    gaps = (far - first) // 300 + 1 - rows
    assert capsys.readouterr().out == f"bars: {rows} rows, {gaps} gap(s)\n"
    grids = []
    for i, bars in enumerate((dataset / "bars_eth.csv", far_bars)):
        out = tmp_path / f"grid{i}"
        assert main(["regress", "--flows", str(dataset / "flows.csv"), "--bars-eth", str(bars),
                     "--bars-btc", str(dataset / "bars_btc.csv"), "--out", str(out)]) == 0
        grids.append((out / "grid.json").read_bytes())
    assert grids[0] == grids[1]


def test_ingest_check_counts_a_header_only_flows_file(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_text("timestamp,asset,inflow_usd,outflow_usd\n")
    assert main(["ingest-check", "--flows", str(flows)]) == 0
    assert capsys.readouterr().out == "flows: 0 rows\n"


def test_ingest_check_requires_input():
    assert main(["ingest-check"]) == 2


def test_ingest_check_rejects_duplicate_quotes(tmp_path, capsys):
    quotes = tmp_path / "options.csv"
    quotes.write_text("quote_time,strike,expiry,option_price,index_price,implied_vol,delta\n"
                      "2022-05-12T13:00:00Z,2000,2022-05-13T08:00:00Z,0.02,2000,1.8,0.17\n"
                      "2022-05-12T13:00:00Z,2000,2022-05-13T08:00:00Z,0.05,2000,1.8,0.17\n")
    assert main(["ingest-check", "--options", str(quotes)]) == 2
    assert "duplicate quote" in capsys.readouterr().err


@pytest.mark.parametrize("flag,text", [
    ("--flows", b"timestamp,asset,inflow_usd,outflow_usd\n"
                b"2022-05-12T13:00:00Z,ET\xff,1,0\n"),
    ("--bars", b"timestamp,open,high,low,close\n"
               b"2022-01-01T11:00:00Z,100,101,99,100.5\xff\n"),
    ("--options", b"\xffquote_time,strike,expiry,option_price,index_price,implied_vol,delta\n"),
], ids=["flows", "bars", "options"])
def test_ingest_check_rejects_non_utf8_input(tmp_path, capsys, flag, text):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    assert main(["ingest-check", flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {bad}: not valid UTF-8\n"


def _modules_after(code, package="scipy"):
    """The modules of ``package`` a fresh interpreter holds after running ``code``."""
    src = str(Path(flowcast.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, flowcast, flowcast.cli\n{code}\n"
             f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return ast.literal_eval(out.splitlines()[-1])  # after what ``code`` prints


@pytest.mark.parametrize("package", ["scipy", "numpy"])
def test_import_loads_no_scipy(package):
    # Importing scipy, or numpy, costs most of a short command's run time;
    # only the functions that call it may load it. Tests import flowcast
    # in-process, so only a fresh interpreter shows what the import loads.
    assert _modules_after("", package) == []


def test_report_loads_no_numpy(dataset, tmp_path):
    # report reads one JSON file and writes one TSV: no function it calls
    # imports numpy.
    grid_dir, render = tmp_path / "grid", tmp_path / "render"
    assert main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"), "--out", str(grid_dir)]) == 0
    argv = ["report", "--grid", str(grid_dir / "grid.json"), "--out", str(render)]
    assert _modules_after(f"assert flowcast.cli.main({argv!r}) == 0", "numpy") == []
    assert (render / "grid.tsv").read_bytes() == (grid_dir / "grid.tsv").read_bytes()


def test_synth_loads_no_scipy(tmp_path):
    # The option chain's normal CDF is synth._ndtr, scipy's ndtr bit for bit.
    chain = ("from flowcast import synth\n"
             "cfg = synth.SynthConfig(seed=1, hours=400, chain=synth.OptionChainSpec())\n"
             "flows, bars = synth.gen_flows_and_prices(cfg)\n"
             "assert len(synth.gen_option_chain(cfg, bars, flows))")
    assert _modules_after(chain) == []
    argv = ["synth", "--seed", "1", "--hours", "400", "--out", str(tmp_path / "data")]
    assert _modules_after(f"assert flowcast.cli.main({argv!r}) == 0") == []
    assert (tmp_path / "data" / "options.csv").stat().st_size > 0


def test_regress_loads_no_scipy(dataset, tmp_path):
    # Stars take scipy's p only within a relative 1e-6 of a star level, where
    # none of these cells' p-values is.
    out = tmp_path / "grid"
    argv = ["regress", "--flows", str(dataset / "flows.csv"),
            "--bars-eth", str(dataset / "bars_eth.csv"),
            "--bars-btc", str(dataset / "bars_btc.csv"), "--daily-weekly", "--out", str(out)]
    assert _modules_after(f"assert flowcast.cli.main({argv!r}) == 0") == []
    assert any(cell["stars"] for cell in json.loads((out / "grid.json").read_text()))
    grid = ("from flowcast import regress, synth\n"
            "cells = regress.run_grid(synth.gen_market(1, 1200))\n"
            "assert any(cell.stars for cell in cells)")
    assert _modules_after(grid) == []


@pytest.mark.parametrize("command", ["synth", "ingest-check", "regress", "backtest"])
def test_command_loads_no_numpy_ma(dataset, tmp_path, command):
    # np.unique imports numpy.ma (for np.ma.is_masked), 10-14 ms of a short
    # command; distinct values are taken by a sort instead, and np.quantile,
    # which calls np.unique, is replaced by options._quantile.
    argv = {
        "synth": ["synth", "--seed", "1", "--hours", "400", "--out", str(tmp_path / "data")],
        "ingest-check": ["ingest-check", "--flows", str(dataset / "flows.csv"),
                         "--bars", str(dataset / "bars_eth.csv"),
                         "--options", str(dataset / "options.csv")],
        "regress": ["regress", "--flows", str(dataset / "flows.csv"),
                    "--bars-eth", str(dataset / "bars_eth.csv"),
                    "--bars-btc", str(dataset / "bars_btc.csv"), "--out", str(tmp_path / "grid")],
        "backtest": ["backtest", "--flows", str(dataset / "flows.csv"),
                     "--options", str(dataset / "options.csv"), "--out", str(tmp_path / "bt")],
    }[command]
    code = f"assert flowcast.cli.main({argv!r}) == 0"
    assert _modules_after(code, "numpy.ma") == []


def test_regress_full_grid(dataset, tmp_path):
    out = tmp_path / "grid"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--out", str(out)])
    assert code == 0
    cells = json.loads((out / "grid.json").read_text())
    assert len(cells) == 80
    jsonschema.validate(cells, GRID_SCHEMA)
    tsv = (out / "grid.tsv").read_text()
    assert len(tsv.splitlines()) == 11


def test_regress_min_obs_above_the_rows_fails_every_cell(dataset, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--min-obs", "100000", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"wrote 80 cells (80 failed) to {out}\n"
    errors = [cell["error"] for cell in json.loads((out / "grid.json").read_text())]
    assert len(errors) == 80
    assert all(re.fullmatch(r"TooFewObservations: n=\d+ below minimum 100000", e)
               for e in errors)


def test_regress_daily_weekly_grid(dataset, tmp_path):
    out = tmp_path / "gridw"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--daily-weekly", "--out", str(out)])
    assert code == 0
    cells = json.loads((out / "grid_daily_weekly.json").read_text())
    assert len(cells) == 16  # 4 pairs x volatility x {24h, 168h} x 2 models
    assert all(c["target"] == "volatility" for c in cells)
    # 400 hours cover only 16 days, so these cells are marked, not fatal
    assert all("error" in c for c in cells)


def test_regress_daily_weekly_grid_takes_the_models(dataset, tmp_path, capsys):
    out = tmp_path / "gridw"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--models", "single", "--daily-weekly", "--out", str(out)])
    assert code == 0
    cells = json.loads((out / "grid_daily_weekly.json").read_text())
    assert len(cells) == 8  # 4 pairs x volatility x {24h, 168h} x single
    assert all(c["model"] == "single" for c in cells)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"wrote 8 daily/weekly cells (8 failed) to {out}")


def test_regress_takes_a_hac_lag_count_past_float_range(dataset, tmp_path):
    out = tmp_path / "grid"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--hac-lags", "1" + "0" * 400, "--out", str(out)])
    assert code == 0
    assert len(json.loads((out / "grid.json").read_text())) == 80


def test_regress_subset_horizons(dataset, tmp_path):
    out = tmp_path / "grid16"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--horizons", "1,6", "--out", str(out)])
    assert code == 0
    assert len(json.loads((out / "grid.json").read_text())) == 32


def test_regress_missing_bars_path(dataset, tmp_path, capsys):
    missing = tmp_path / "nope" / "bars.csv"
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(missing),
                 "--out", str(tmp_path / "g")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bars.csv" in err


def test_regress_requires_bars_for_pairs(dataset, tmp_path, capsys):
    code = main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--out", str(tmp_path / "g")])
    assert code == 2
    assert "BTC" in capsys.readouterr().err


def test_regress_on_header_only_bars_marks_every_cell(dataset, tmp_path):
    empty = tmp_path / "bars_btc.csv"
    empty.write_text("timestamp,open,high,low,close\n")
    out = tmp_path / "g"
    assert main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"), "--bars-btc", str(empty),
                 "--out", str(out)]) == 0
    cells = json.loads((out / "grid.json").read_text())
    btc = [c for c in cells if c["pair"][1] == "BTC"]
    assert len(btc) == 40
    assert all(c["error"] == "EmptyAlignment: no overlapping predictor/response timestamps"
               for c in btc)
    assert not any("error" in c for c in cells if c["pair"][1] == "ETH")


def test_regress_is_idempotent(dataset, tmp_path):
    out = tmp_path / "grid_rerun"
    args = ["regress", "--flows", str(dataset / "flows.csv"),
            "--bars-eth", str(dataset / "bars_eth.csv"),
            "--bars-btc", str(dataset / "bars_btc.csv"),
            "--pairs", "USDT:ETH,ETH:ETH", "--out", str(out)]
    assert main(args) == 0
    first = digest_dir(out)
    assert main(args) == 0
    assert digest_dir(out) == first


def test_report_rerenders_grid(dataset, tmp_path):
    grid_dir = tmp_path / "grid"
    assert main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--out", str(grid_dir)]) == 0
    render = tmp_path / "render"
    assert main(["report", "--grid", str(grid_dir / "grid.json"),
                 "--out", str(render)]) == 0
    assert (render / "grid.tsv").read_bytes() == (grid_dir / "grid.tsv").read_bytes()


def test_events_command(dataset, tmp_path, capsys):
    out = tmp_path / "events"
    code = main(["events", "--flows", str(dataset / "flows.csv"),
                 "--asset", "ETH", "--k", "10", "--out", str(out)])
    assert code == 0
    lines = (out / "events.csv").read_text().strip().split("\n")
    assert len(lines) == 11  # header + 10 hits
    assert "threshold percentile" in capsys.readouterr().out


@pytest.fixture
def year_end_flows(tmp_path):
    """Twelve ETH hours from 2021-12-31T20Z: four in 2021, eight in 2022."""
    lines = [f"2021-12-31T{h}:00:00Z,ETH,{h},0" for h in range(20, 24)]
    lines += [f"2022-01-01T{h:02d}:00:00Z,ETH,{h + 1},0" for h in range(8)]
    flows = tmp_path / "flows.csv"
    flows.write_text("timestamp,asset,inflow_usd,outflow_usd\n" + "\n".join(lines) + "\n")
    return flows


def test_events_threshold_percentile_is_never_negative(year_end_flows, tmp_path, capsys):
    # k = 10 flags every hour of both years: the 0th percentile.
    out = tmp_path / "events"
    assert main(["events", "--flows", str(year_end_flows), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "2021: 4 hits over 4 hours (threshold percentile 0.00%)\n"
        "2022: 8 hits over 8 hours (threshold percentile 0.00%)\n"
        f"wrote 12 events to {out}\n")


def test_events_flags_a_year_named_twice_once(year_end_flows, tmp_path, capsys):
    out = tmp_path / "events"
    argv = ["events", "--flows", str(year_end_flows), "--years", "2021,2021", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "2021: 4 hits over 4 hours (threshold percentile 0.00%)\n"
        f"wrote 4 events to {out}\n")
    assert len((out / "events.csv").read_text().splitlines()) == 5


def test_events_with_windows(dataset, tmp_path):
    out = tmp_path / "eventsw"
    code = main(["events", "--flows", str(dataset / "flows.csv"),
                 "--asset", "ETH", "--k", "3",
                 "--bars", str(dataset / "bars_eth.csv"),
                 "--window-pre-hours", "2", "--window-post-hours", "2",
                 "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "events.csv" in names
    assert any(n.startswith("window_") and n.endswith("_flows.csv") for n in names)


def test_backtest_command(dataset, tmp_path):
    out = tmp_path / "bt"
    code = main(["backtest", "--flows", str(dataset / "flows.csv"),
                 "--options", str(dataset / "options.csv"),
                 "--asset", "ETH", "--pct", "0.10", "--out", str(out)])
    assert code == 0
    lines = (out / "report.tsv").read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header == ["bucket", "win_rate", "total_trades", "wtl",
                      "r_avg_net", "r_total_net"]
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    top = rows["top10%,original"]
    bottom = rows["bottom10%,original"]
    assert float(top[1]) > float(bottom[1])  # planted separation


def test_backtest_is_idempotent(dataset, tmp_path):
    out = tmp_path / "bt_rerun"
    args = ["backtest", "--flows", str(dataset / "flows.csv"),
            "--options", str(dataset / "options.csv"), "--out", str(out)]
    assert main(args) == 0
    first = digest_dir(out)
    assert main(args) == 0
    assert digest_dir(out) == first


def test_commands_do_not_mutate_inputs(dataset, tmp_path):
    before = digest_dir(dataset)
    main(["regress", "--flows", str(dataset / "flows.csv"),
          "--bars-eth", str(dataset / "bars_eth.csv"),
          "--pairs", "ETH:ETH", "--out", str(tmp_path / "g2")])
    main(["events", "--flows", str(dataset / "flows.csv"),
          "--out", str(tmp_path / "e2")])
    assert digest_dir(dataset) == before


def test_config_file_supplies_defaults(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"events.flows = {dataset / 'flows.csv'}\n"
                   "events.k = 4\n"
                   "# comment line\n")
    out = tmp_path / "events_cfg"
    code = main(["--config", str(cfg), "events", "--out", str(out)])
    assert code == 0
    assert len((out / "events.csv").read_text().strip().split("\n")) == 5
    # explicit flag beats the config value
    out2 = tmp_path / "events_cfg2"
    code = main(["--config", str(cfg), "events", "--k", "2", "--out", str(out2)])
    assert code == 0
    assert len((out2 / "events.csv").read_text().strip().split("\n")) == 3


@pytest.mark.parametrize("line,key", [
    ("evnts.k = 4", "'evnts.k'"),
    ("events.kk = 3", "'events.kk'"),
], ids=["unknown-section", "unknown-key"])
def test_config_rejects_unknown_section_or_key(dataset, tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comment line\n{line}\n")
    out = tmp_path / "events_cfg"
    code = main(["--config", str(cfg), "events", "--flows", str(dataset / "flows.csv"),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: unknown " in err and key in err
    assert not out.exists()


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,asset,inflow_usd,outflow_usd\n"
                   "2022-01-01T00:00:00Z,ETH,-5,0\n")
    code = main(["events", "--flows", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("flags,message", [
    (["--noise-sd", "-1"], "standard deviations must be non-negative"),
    (["--sub-frequency-minutes", "0"], "sub_frequency must divide one hour"),
    (["--sub-frequency-minutes", "-5"], "sub_frequency must divide one hour"),
    (["--iv-base", "0"], "iv_base must be positive"),
    (["--iv-base", "-1"], "iv_base must be positive"),
    (["--usdt-eth-ret", "nan"], "usdt_eth_return must be finite, got nan"),
    (["--eth-eth-ret", "inf"], "eth_eth_return must be finite, got inf"),
    (["--usdt-btc-ret", "-inf"], "usdt_btc_return must be finite, got -inf"),
    (["--btc-btc-vol", "nan"], "btc_btc_vol must be finite, got nan"),
    (["--return-ar", "inf"], "return_ar must be finite, got inf"),
    (["--noise-sd", "nan"], "noise_sd must be finite, got nan"),
    (["--noise-sd", "inf"], "noise_sd must be finite, got inf"),
    (["--iv-base", "nan"], "iv_base must be finite, got nan"),
    (["--iv-base", "inf"], "iv_base must be finite, got inf"),
    (["--iv-flow-beta", "-inf"], "iv_flow_beta must be finite, got -inf"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["noise-sd", "sub-frequency-zero", "sub-frequency-negative", "iv-base-zero",
        "iv-base-negative", "usdt-eth-ret-nan", "eth-eth-ret-inf", "usdt-btc-ret-negative-inf",
        "btc-btc-vol-nan", "return-ar-inf", "noise-sd-nan", "noise-sd-inf", "iv-base-nan",
        "iv-base-inf", "iv-flow-beta-negative-inf", "seed-negative"])
def test_synth_rejects_a_bad_flag_before_drawing(tmp_path, capsys, monkeypatch, flags, message):
    def drawn(*args, **kwargs):
        raise AssertionError("gen_market ran before the flags were checked")

    monkeypatch.setattr(synth, "gen_market", drawn)
    out = tmp_path / "data"
    assert main(["synth", "--seed", "1", "--hours", "100", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_synth_refuses_a_sub_frequency_too_long_for_a_duration(tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["synth", "--seed", "1", "--sub-frequency-minutes", "10000000000000",
            "--out", str(out)]
    assert main(argv) == 2
    assert ("'--sub-frequency-minutes': 10000000000000 is not in the range x<=1439999999999"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("hours", ["99999999999999999999", "1" + "0" * 400],
                         ids=["past-numpy-dimension", "past-float-range"])
def test_synth_refuses_hours_too_long_for_a_duration(tmp_path, capsys, hours):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "1", "--hours", hours, "--out", str(out)]) == 2
    assert (f"'--hours': {hours} is not in the range x<=23999999999"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--eth-eth-ret", "1e308"], "the plants drive the ETH close at 2021-01-07T01:00:00Z to inf"),
    (["--eth-eth-ret", "-50"], "the plants drive the ETH close at 2021-01-29T07:50:00Z to inf"),
    (["--btc-btc-vol", "1e308"], "the plants drive the BTC close at 2021-01-07T01:30:00Z to 0.0"),
    (["--return-ar", "1.5"], "the plants drive the ETH close at 2021-02-21T00:00:00Z to 0.0"),
], ids=["eth-eth-ret-overflow", "eth-eth-ret-large", "btc-btc-vol-overflow", "return-ar-explosive"])
def test_synth_refuses_a_plant_that_drives_prices_out_of_range(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "1", "--hours", "2000", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"validation error: {message}, "
                                       "not a finite positive price\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,vol", [
    (["--iv-base", "1e308"], "1e+308"),
    (["--iv-flow-beta", "1e300"], "2.4856802100068158e+300"),
    (["--iv-flow-beta", "1e308"], "inf"),
], ids=["iv-base", "iv-flow-beta", "iv-flow-beta-overflow"])
def test_synth_refuses_an_implied_vol_whose_variance_overflows(tmp_path, capsys, flags, vol):
    # Priced, such a call was worth its intrinsic value, not its limit, the index.
    out = tmp_path / "data"
    assert main(["synth", "--seed", "1", "--hours", "100", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"validation error: implied vol {vol} over "
                                       "0.002625570776255708 years overflows the call's "
                                       "variance\n")
    assert not out.exists()


def _default(command, name):
    """A command's default for ``name``, converted by the flag's type."""
    param = next(p for p in cli.commands[command].params if p.name == name)
    return param.type.convert(param.default, param, None)


def test_cli_defaults_are_the_library_defaults():
    costs, chain = options.CostParams(), synth.OptionChainSpec()
    assert _default("regress", "horizons") == list(regress.DEFAULT_HORIZONS)
    assert _default("regress", "pairs") == list(regress.DEFAULT_PAIRS)
    assert _default("regress", "targets") == list(regress.TARGETS)
    assert _default("regress", "models") == list(regress.MODELS)
    for name in ("premium_rate", "hedge_rate", "half_spread", "slippage"):
        assert _default("backtest", name) == getattr(costs, name)
    assert _default("synth", "iv_base") == chain.iv_base
    assert _default("synth", "noise_sd") == synth.SynthConfig(seed=0, hours=100).noise_sd
    assert (timedelta(minutes=_default("synth", "sub_frequency_minutes"))
            == synth.DEFAULT_SUB_FREQUENCY)


def _argv(dataset, command, flows, flags, out):
    """``command`` on ``flows`` and the dataset's other inputs, with ``flags``."""
    inputs = {"ingest-check": ["--bars", str(dataset / "bars_eth.csv")],
              "regress": ["--bars-eth", str(dataset / "bars_eth.csv"),
                          "--bars-btc", str(dataset / "bars_btc.csv")],
              "events": ["--bars", str(dataset / "bars_eth.csv")],
              "backtest": ["--options", str(dataset / "options.csv")]}[command]
    out_flag = [] if command == "ingest-check" else ["--out", str(out)]
    return [command, "--flows", str(flows), *inputs, *flags, *out_flag]


# Numeric flags out of range: refused while the flags are parsed.
NUMERIC_FLAG_ERRORS = [
    ("events", ["--k", "0"], 2, "'--k': 0 is not in the range x>=1"),
    ("backtest", ["--pct", "0"], 2, "'--pct': 0.0 is not in the range 0<x<=1"),
    ("backtest", ["--pct", "1.5"], 2, "'--pct': 1.5 is not in the range 0<x<=1"),
    ("backtest", ["--holding-hours", "0"], 2,
     "'--holding-hours': 0 is not in the range 1<=x<=23999999999"),
    ("backtest", ["--pct", "nan"], 2, "'--pct': nan is not a finite number."),
    ("backtest", ["--slippage", "nan"], 2, "'--slippage': nan is not a finite number."),
    ("backtest", ["--half-spread", "inf"], 2, "'--half-spread': inf is not a finite number."),
    ("backtest", ["--premium-rate", "-1"], 2,
     "'--premium-rate': -1.0 is not in the range x>=0."),
    ("backtest", ["--hedge-rate", "-inf"], 2,
     "'--hedge-rate': -inf is not in the range x>=0."),
    # Durations a timedelta cannot hold.
    ("regress", ["--horizons", "100000000000000"], 2,
     "'--horizons': bad horizon '100000000000000'; expected whole hours in 1..23999999999"),
    ("backtest", ["--holding-hours", "10000000000000000"], 2,
     "'--holding-hours': 10000000000000000 is not in the range 1<=x<=23999999999"),
    ("events", ["--window-pre-hours", "100000000000000"], 2,
     "'--window-pre-hours': 100000000000000 is not in the range 0<=x<=23999999999"),
    ("events", ["--window-post-hours", "100000000000000"], 2,
     "'--window-post-hours': 100000000000000 is not in the range 0<=x<=23999999999"),
    ("regress", ["--min-obs", "-1"], 2, "'--min-obs': -1 is not in the range x>=0"),
] + [(command, ["--bar-frequency-minutes", minutes], 2,
      f"'--bar-frequency-minutes': {minutes} is not in the range 1<=x<=1439999999999")
     for minutes in ("0", "10000000000000") for command in ("ingest-check", "regress", "events")]
NUMERIC_FLAG_IDS = ["k-zero", "pct-zero", "pct-above-one", "holding-zero", "pct-nan",
                    "slippage-nan", "half-spread-inf", "premium-rate-negative",
                    "hedge-rate-negative-inf", "horizon-too-long", "holding-too-long",
                    "window-pre-too-long", "window-post-too-long", "min-obs-negative",
                    "ingest-check-frequency", "regress-frequency", "events-frequency",
                    "ingest-check-frequency-too-long", "regress-frequency-too-long",
                    "events-frequency-too-long"]


@pytest.mark.parametrize("command,flags,code,message", [
    ("regress", ["--horizons", "0"], 2, "'--horizons': bad horizon '0'"),
    ("regress", ["--horizons", "1,-1"], 2, "'--horizons': bad horizon '-1'"),
    ("regress", ["--horizons", "1.5"], 2, "'--horizons': bad horizon '1.5'"),
    ("regress", ["--horizons", ","], 2, "'--horizons': no horizons given"),
    ("regress", ["--hac-lags", "-1"], 2, "'--hac-lags': -1 is not in the range x>=0"),
    ("regress", ["--pairs", "USDT-ETH"], 2, "bad pair 'USDT-ETH'; expected e.g. 'USDT:ETH'"),
    ("regress", ["--pairs", " , "], 2, "no pairs given"),
    ("regress", ["--targets", "price"], 2, "bad target 'price'; allowed: return, volatility"),
    ("regress", ["--models", "triple"], 2, "bad model 'triple'; allowed: single, double"),
    ("regress", ["--models", ","], 2, "no models given"),
    ("events", ["--window-pre-hours", "-1"], 2,
     "'--window-pre-hours': -1 is not in the range 0<=x<=23999999999"),
    ("events", ["--window-post-hours", "-1"], 2,
     "'--window-post-hours': -1 is not in the range 0<=x<=23999999999"),
    ("events", ["--years", "x"], 2, "'--years': bad year 'x'"),
    ("events", ["--years", ","], 2, "'--years': no years given"),
    ("backtest", ["--legs", "middle"], 2, "bad leg 'middle'; allowed: top, bottom"),
    ("backtest", ["--help"], 0, "Percentile-triggered call backtest"),
] + NUMERIC_FLAG_ERRORS, ids=["horizon-zero", "horizon-negative", "horizon-fraction",
                              "no-horizons", "hac-lags", "pair", "no-pairs", "target", "model",
                              "no-models", "window-pre", "window-post", "years", "no-years",
                              "leg", "help"] + NUMERIC_FLAG_IDS)
def test_flag_errors_exit_2_and_help_exits_0(dataset, tmp_path, capsys, command, flags,
                                             code, message):
    out = tmp_path / "o"
    assert main(_argv(dataset, command, dataset / "flows.csv", flags, out)) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)
    assert not out.exists()


def test_bad_list_flag_is_refused_before_any_input_is_read(dataset, tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_text("timestamp,asset,inflow_usd,outflow_usd\nnot,a,valid,row\n")
    argv = ["regress", "--flows", str(flows), "--bars-eth", str(dataset / "bars_eth.csv"),
            "--pairs", "USDT:ETH", "--models", "triple", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "bad model 'triple'; allowed: single, double" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("regress.pairs = USDT-ETH",
     "Invalid value for '--pairs': bad pair 'USDT-ETH'; expected e.g. 'USDT:ETH'"),
    ("regress.horizons = 1,0",
     "Invalid value for '--horizons': bad horizon '0'; expected whole hours in 1..23999999999"),
], ids=["pairs", "horizons"])
def test_bad_list_in_a_config_file_is_refused_before_any_input_is_read(
        dataset, tmp_path, capsys, line, message):
    flows = tmp_path / "flows.csv"
    flows.write_text("timestamp,asset,inflow_usd,outflow_usd\nnot,a,valid,row\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "o"
    argv = ["--config", str(cfg), "regress", "--flows", str(flows),
            "--bars-eth", str(dataset / "bars_eth.csv"),
            "--bars-btc", str(dataset / "bars_btc.csv"), "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,code,message", NUMERIC_FLAG_ERRORS,
                         ids=NUMERIC_FLAG_IDS)
def test_bad_numeric_flag_is_refused_before_any_input_is_read(dataset, tmp_path, capsys,
                                                              command, flags, code, message):
    flows = tmp_path / "flows.csv"
    flows.write_text("timestamp,asset,inflow_usd,outflow_usd\nnot,a,valid,row\n")
    assert main(_argv(dataset, command, flows, flags, tmp_path / "o")) == code
    assert message in capsys.readouterr().err


def test_events_checks_the_bars_before_writing(dataset, tmp_path, capsys):
    # 7 minutes is off the grid of the dataset's 5-minute bars.
    out = tmp_path / "o"
    argv = ["events", "--flows", str(dataset / "flows.csv"), "--bars",
            str(dataset / "bars_eth.csv"), "--bar-frequency-minutes", "7", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "off the 0:07:00 grid" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag,data,reason", [
    ("--grid", b"{", "not a heatmap grid (Expecting property name enclosed in double quotes"),
    ("--grid", b'[{"pair": 1}]', "not a heatmap grid ('int' object is not subscriptable)"),
    ("--grid", b"\xff[]", "not valid UTF-8"),
    ("--grid", b"[" * 100000, "not a heatmap grid (maximum recursion depth exceeded"),
    ("--config", b"report.out = x\n\xff\n", "not valid UTF-8"),
], ids=["grid-json", "grid-cell-type", "grid-utf8", "grid-nesting", "config-utf8"])
def test_bad_grid_or_config_is_a_validation_error(tmp_path, capsys, flag, data, reason):
    bad = tmp_path / "bad.in"
    bad.write_bytes(data)
    grid = tmp_path / "grid.json"
    grid.write_text("[]\n")
    if flag == "--grid":
        argv = ["report", "--grid", str(bad), "--out", str(tmp_path / "o")]
    else:
        argv = ["--config", str(bad), "report", "--grid", str(grid), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {bad}: {reason}")
    assert "Traceback" not in err


def _one_cell(**fields) -> bytes:
    cell = {"pair": ["USDT", "ETH"], "target": "return", "horizon_hours": 1,
            "model": "single", "beta1": 1.0, "stars": "", "sign": "insignificant"}
    return json.dumps([{**cell, **fields}]).encode()


@pytest.mark.parametrize("data,reason", [
    (_one_cell(pair=["USDT"]), "list index out of range"),
    (_one_cell(pair=["USDT", "ETH", "BTC"]), "pair ['USDT', 'ETH', 'BTC'] does not have"),
    (_one_cell(target="price"), "target 'price' is not one of"),
    (_one_cell(model="triple"), "model 'triple' is not one of"),
    (_one_cell(horizon_hours=-1.5), "horizon_hours -1.5 is not a positive duration"),
    (_one_cell(horizon_hours=0), "horizon_hours 0 is not a positive duration"),
    (_one_cell(horizon_hours=float("inf")), "cannot convert float infinity"),
    (_one_cell(horizon_hours=float("nan")), "cannot convert float NaN"),
    (_one_cell(stars="nonsense"), "stars 'nonsense' is not one of"),
    (_one_cell(horizon_hours=True), "horizon_hours True is not a number"),
    (_one_cell(sign="up"), "sign 'up' is not one of"),
    (_one_cell(beta1=0.5, stars="***", sign="negative"),
     "sign 'negative' disagrees with beta1 0.5 and stars '***'"),
    (_one_cell(beta1="oops"), "beta1 'oops' is not a number"),
    (_one_cell(beta1=None, stars="***"), "a cell with no error has beta1 null"),
    (_one_cell(beta1=float("nan"), stars="***", sign="negative"),
     "stars '***' on a NaN beta1"),
    (_one_cell(beta1=0.5, error="TooFewObservations: n=1 below minimum 30"),
     "a failed cell has beta1 0.5 and stars ''"),
    (_one_cell(beta1=None, error=5), "error must be a string"),
], ids=["pair-one", "pair-three", "target", "model", "horizon-negative", "horizon-zero",
        "horizon-inf", "horizon-nan", "stars", "horizon-bool", "sign", "sign-disagrees",
        "beta1", "fitted-null-beta1", "starred-nan-beta1", "failed-with-beta1",
        "error-not-a-string"])
def test_grid_cell_with_a_bad_value_is_a_validation_error(tmp_path, capsys, data, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["report", "--grid", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {bad}: not a heatmap grid ({reason}")
    assert not (tmp_path / "o").exists()


def test_report_loads_every_grid_regress_writes(dataset, tmp_path):
    # The 24h/168h grid of a 400-hour dataset is all failed cells, with null beta1.
    grid_dir = tmp_path / "grid"
    assert main(["regress", "--flows", str(dataset / "flows.csv"),
                 "--bars-eth", str(dataset / "bars_eth.csv"),
                 "--bars-btc", str(dataset / "bars_btc.csv"),
                 "--daily-weekly", "--out", str(grid_dir)]) == 0
    for name in ("grid", "grid_daily_weekly"):
        render = tmp_path / f"render_{name}"
        assert main(["report", "--grid", str(grid_dir / f"{name}.json"),
                     "--out", str(render)]) == 0
        assert (render / "grid.tsv").read_bytes() == (grid_dir / f"{name}.tsv").read_bytes()
