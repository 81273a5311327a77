"""Each benchmark check passes on the program's own output and fails when
one value in the output it guards is corrupted.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from flowcast import regress, synth  # noqa: E402
from flowcast.cli import main as flowcast  # noqa: E402


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> tuple[Path, str]:
    """A 400-hour dataset with every command's output, and ingest-check's stdout."""
    root = tmp_path_factory.mktemp("pipeline")
    data, out = root / "data", root / "out"
    assert flowcast(["synth", "--seed", "5", "--hours", "400", "--out", str(data)]) == 0
    assert flowcast(["regress", "--flows", str(data / "flows.csv"),
                     "--bars-eth", str(data / "bars_eth.csv"),
                     "--bars-btc", str(data / "bars_btc.csv"),
                     "--daily-weekly", "--out", str(out / "regress")]) == 0
    assert flowcast(["events", "--flows", str(data / "flows.csv"), "--bars",
                     str(data / "bars_eth.csv"), "--out", str(out / "events")]) == 0
    assert flowcast(["backtest", "--flows", str(data / "flows.csv"),
                     "--options", str(data / "options.csv"), "--out", str(out / "backtest")]) == 0
    assert flowcast(["report", "--grid", str(out / "regress" / "grid.json"),
                     "--out", str(out / "report")]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert flowcast(["ingest-check", "--flows", str(data / "flows.csv"),
                         "--bars", str(data / "bars_eth.csv"),
                         "--options", str(data / "options.csv")]) == 0
    return root, stdout.getvalue()


@pytest.fixture
def run(pipeline, tmp_path) -> Path:
    """A private copy of the pipeline's files, free to corrupt."""
    copy = tmp_path / "run"
    shutil.copytree(pipeline[0], copy)
    return copy


def replace_once(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text and old != new
    path.write_text(text.replace(old, new, 1))


def edit_csv_field(path: Path, row: int, col: int, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = fn(rows[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def nudge(text: str) -> str:
    """The same number, changed in its seventh significant digit."""
    return repr(float(text) * (1 + 1e-6) or 1e-9)


def test_setup_rows(run):
    checks.check_setup(run / "data", 400)
    lines = (run / "data" / "bars_btc.csv").read_text().splitlines(keepends=True)
    (run / "data" / "bars_btc.csv").write_text("".join(lines[:-1]))
    with pytest.raises(checks.CheckFailed, match="bars_btc.csv"):
        checks.check_setup(run / "data", 400)


def test_ingest_counts(run, pipeline):
    stdout = pipeline[1]
    checks.check_ingest(stdout, checks.Inputs(run / "data"))
    n = stdout.split("options: ")[1].split(" quotes")[0]
    corrupted = stdout.replace(f"options: {n} quotes", f"options: {int(n) + 1} quotes")
    with pytest.raises(checks.CheckFailed, match="ingest-check printed"):
        checks.check_ingest(corrupted, checks.Inputs(run / "data"))


def test_regress_slope(run):
    grid = run / "out" / "regress" / "grid.json"
    checks.check_regress(run / "out" / "regress", checks.Inputs(run / "data"), planted=False)
    cells = json.loads(grid.read_text())
    cell = next(c for c in cells if c["horizon_hours"] == 1 and c["model"] == "single")
    cell["beta1"] = float(nudge(repr(cell["beta1"])))
    grid.write_text(json.dumps(cells))
    with pytest.raises(checks.CheckFailed, match="slope from the CSVs"):
        checks.check_regress(run / "out" / "regress", checks.Inputs(run / "data"), planted=False)


def test_regress_failed_cells(run):
    grid = run / "out" / "regress" / "grid_daily_weekly.json"
    cells = json.loads(grid.read_text())
    assert all("error" in c for c in cells)  # 400 hours leave too few daily/weekly rows
    del cells[0]["error"]
    grid.write_text(json.dumps(cells))
    with pytest.raises(checks.CheckFailed, match="aligned rows"):
        checks.check_regress(run / "out" / "regress", checks.Inputs(run / "data"), planted=False)


def test_planted_cells():
    plants = synth.GridPlants(usdt_eth_return=1.1e-5, eth_eth_return=-0.017,
                              usdt_btc_return=6.3e-6, btc_btc_vol=-17.0, return_ar=-0.03)
    cells = [regress.cell_to_dict(c)
             for c in regress.run_grid(synth.gen_market(3, 40_000, plants))]
    checks.check_planted(cells)
    cell = next(c for c in cells if c["horizon_hours"] == 1 and c["pair"] == ["USDT", "BTC"]
                and c["target"] == "return" and c["model"] == "double")
    cell["stars"] = "**"
    with pytest.raises(checks.CheckFailed, match="not recovered"):
        checks.check_planted(cells)


def test_events_rows(run):
    checks.check_events(run / "out" / "events", checks.Inputs(run / "data"))
    edit_csv_field(run / "out" / "events" / "events.csv", 3, 2, nudge)
    with pytest.raises(checks.CheckFailed, match="events.csv row"):
        checks.check_events(run / "out" / "events", checks.Inputs(run / "data"))


def test_events_window_track(run):
    prices = sorted((run / "out" / "events").glob("window_*_prices.csv"))[0]
    edit_csv_field(prices, 5, 1, nudge)
    with pytest.raises(checks.CheckFailed, match="window"):
        checks.check_events(run / "out" / "events", checks.Inputs(run / "data"))


def test_events_window_missing(run):
    sorted((run / "out" / "events").glob("window_*_flows.csv"))[0].unlink()
    with pytest.raises(checks.CheckFailed, match="written=False"):
        checks.check_events(run / "out" / "events", checks.Inputs(run / "data"))


@pytest.mark.parametrize("column", [2, 5])  # total_trades, r_total_net
def test_backtest_report(run, column):
    report = run / "out" / "backtest" / "report.tsv"
    checks.check_backtest(report, checks.Inputs(run / "data"))
    rows = [line.split("\t") for line in report.read_text().splitlines()]
    rows[1][column] = str(int(rows[1][column]) + 1) if column == 2 else nudge(rows[1][column])
    report.write_text("".join("\t".join(r) + "\n" for r in rows))
    with pytest.raises(checks.CheckFailed, match="report.tsv row"):
        checks.check_backtest(report, checks.Inputs(run / "data"))


def test_report_bytes(run):
    tsv = run / "out" / "report" / "grid.tsv"
    checks.check_report(tsv, run / "out" / "regress" / "grid.tsv")
    replace_once(tsv, "***", "**")
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_report(tsv, run / "out" / "regress" / "grid.tsv")


def test_null_share():
    checks.check_null_share(100, 1000)
    for starred in (69, 131):
        with pytest.raises(checks.CheckFailed, match="null phase"):
            checks.check_null_share(starred, 1000)


def test_same_bytes(run):
    first = checks.digests(run / "out" / "backtest")
    checks.check_same_bytes("backtest", first, checks.digests(run / "out" / "backtest"))
    replace_once(run / "out" / "backtest" / "report.tsv", "original", "original ")
    with pytest.raises(checks.CheckFailed, match="re-run changed"):
        checks.check_same_bytes("backtest", first, checks.digests(run / "out" / "backtest"))
