import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import flowcast
from flowcast.cli import main

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


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = str(Path(flowcast.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, flowcast, flowcast.cli\n{code}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return ast.literal_eval(out)


def test_import_loads_no_scipy():
    # Importing scipy costs most of a short command's run time; only the
    # functions that call it may load it. Tests import flowcast in-process,
    # so only a fresh interpreter shows what the import itself loads.
    assert _scipy_modules_after("") == []


def test_synth_loads_scipy_special_alone():
    # The planted market needs no scipy; the option chain needs ndtr only.
    assert _scipy_modules_after("flowcast.synth.gen_market(1, 400)") == []
    chain = ("from flowcast import synth\n"
             "cfg = synth.SynthConfig(seed=1, hours=400, chain=synth.OptionChainSpec())\n"
             "flows, bars = synth.gen_flows_and_prices(cfg)\n"
             "synth.gen_option_chain(cfg, bars, flows)")
    loaded = _scipy_modules_after(chain)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats"))]
    # Besides scipy.special, only scipy's private helpers and its version module.
    public = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
    assert public == {"special", "version"}


def test_every_public_name_resolves():
    assert [name for name in flowcast.__all__ if not hasattr(flowcast, name)] == []
    assert len(set(flowcast.__all__)) == len(flowcast.__all__)


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
], ids=["noise-sd", "sub-frequency-zero", "sub-frequency-negative"])
def test_synth_rejects_a_bad_flag_before_drawing(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "1", "--hours", "100", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flags,code,message", [
    ("regress", ["--horizons", "0"], 2, "bad horizon list '0'"),
    ("regress", ["--horizons", "1,-1"], 2, "bad horizon list '1,-1'"),
    ("regress", ["--horizons", "1.5"], 2, "bad horizon list '1.5'"),
    ("regress", ["--hac-lags", "-1"], 2, "'--hac-lags': -1 is not in the range x>=0"),
    ("regress", ["--pairs", "USDT-ETH"], 2, "bad pair 'USDT-ETH'; expected e.g. 'USDT:ETH'"),
    ("regress", ["--pairs", " , "], 2, "no pairs given"),
    ("regress", ["--targets", "price"], 2, "bad target 'price'; allowed: return, volatility"),
    ("regress", ["--models", "triple"], 2, "bad model 'triple'; allowed: single, double"),
    ("regress", ["--models", ","], 2, "no model given"),
    ("events", ["--window-pre-hours", "-1"], 2,
     "'--window-pre-hours': -1 is not in the range x>=0"),
    ("events", ["--window-post-hours", "-1"], 2,
     "'--window-post-hours': -1 is not in the range x>=0"),
    ("events", ["--years", "x"], 2, "bad year list 'x'"),
    ("backtest", ["--legs", "middle"], 2, "bad leg 'middle'; allowed: top, bottom"),
    ("backtest", ["--help"], 0, "Percentile-triggered call backtest"),
], ids=["horizon-zero", "horizon-negative", "horizon-fraction", "hac-lags",
        "pair", "no-pairs", "target", "model", "no-models", "window-pre", "window-post",
        "years", "leg", "help"])
def test_flag_errors_exit_2_and_help_exits_0(dataset, tmp_path, capsys, command, flags,
                                             code, message):
    inputs = {"regress": ["--bars-eth", str(dataset / "bars_eth.csv"),
                          "--bars-btc", str(dataset / "bars_btc.csv")],
              "events": ["--bars", str(dataset / "bars_eth.csv")],
              "backtest": ["--options", str(dataset / "options.csv")]}[command]
    out = tmp_path / "o"
    argv = [command, "--flows", str(dataset / "flows.csv"), *inputs, *flags, "--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)
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
    (_one_cell(sign="up"), "sign 'up' is not one of"),
    (_one_cell(beta1="oops"), "beta1 'oops' is not a number"),
], ids=["pair-one", "pair-three", "target", "model", "horizon-negative", "horizon-zero",
        "horizon-inf", "horizon-nan", "stars", "sign", "beta1"])
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
