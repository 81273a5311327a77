"""Golden SHA-256 digests of every file the CLI writes, for two fixed datasets.

Criterion 8 only checks that two runs agree with each other; these pins
also catch a change that alters output bytes the same way on every run.
A pinned digest may change only on purpose, with a CHANGES.md entry that
says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowcast
from flowcast.cli import main
from flowcast.regress import grid_to_json, run_grid
from flowcast.synth import GridPlants, gen_market

# (seed, hours) -> {"<output dir>/<file>": sha256}, 29 files per dataset.
GOLDEN = {
    (9, 400): {
        "bt/report.tsv":
            "93f45a76a8211d0f14347a15d15105ad0b9ef4cea437729fbdcd7ec5e5043ab4",
        "data/bars_btc.csv":
            "d052b300091b71df515aeea28d7ac223508bec433885df5e507fe4f94caa8480",
        "data/bars_eth.csv":
            "fe6225a79225f2f716beb18d3714400a11b79f202e7e8e7acbb5ef477a8e3236",
        "data/flows.csv":
            "bf5f4c7e411e1dd3180bf7160d791ef8bcca9de25baf8c5393fbe0e8cf39fee5",
        "data/options.csv":
            "b377fd27c6484484e874367e999ea8ccbddcc8e9cc7f424821cf0b8509d7adc3",
        "events/events.csv":
            "3f431f83d8d351ac9b8f4e7d9cce91c1eb2744da4c05f83395c021d4a65a4f36",
        "events/window_01_flows.csv":
            "f37a2ccb4eab7847f5fed74c537227a41b249216c0c403d695ebfdfc46ddb7ca",
        "events/window_01_prices.csv":
            "7180694e0004d6f083c7d853e42fb6813db08dfe0a01d2563909e6b9edd6bf99",
        "events/window_02_flows.csv":
            "297ea235c97ff35a580a1f11fdfb6c29677a88d2404ec52abd43aacda179e7a5",
        "events/window_02_prices.csv":
            "5896b68b13a390c5a801a5112843e4fe87d13db0eac70087ba6f01705393b38d",
        "events/window_03_flows.csv":
            "93c2fa67dcf1bde7dc86dd1b6fccc5cfd112ca38b3ef929e9ed0b5ee33f3b206",
        "events/window_03_prices.csv":
            "ff746cde282119c49625ed1478143d6c67aa6f145a11f67a03aaf644c8bfe26d",
        "events/window_04_flows.csv":
            "c18c1b04f8282a5f31f9933a8ff0658dc7e5d4076b12b3bf4b9efa9ec2f34f08",
        "events/window_04_prices.csv":
            "f9d0bb9e4e5bd9aa8c8378201bdf78b3049436c7f7bff9bc0317b3455e064959",
        "events/window_05_flows.csv":
            "0151e519ebce6ebe9f9bceb320c8b27473025c527edf58ce7b52d776594b51d0",
        "events/window_05_prices.csv":
            "2529aa5ea87d05c2eb8330b7fe70b1bfac703574df29ae13933db8f6b30fe6fa",
        "events/window_06_flows.csv":
            "9a378b18a3730a7ce14d4946a181a4289a837f98803ddc91732f468e11f96db7",
        "events/window_06_prices.csv":
            "a6bac9428a200898d63a925ad9f9e02a6b325cb3a99253b65ec43fd624e1f2a7",
        "events/window_07_flows.csv":
            "d7887edf38f635e31eb8ed1a4b150ed2dd1c64ad5af038c4cdb3d66594f7c9f2",
        "events/window_07_prices.csv":
            "fda7d51ff146724998f092606b34a96d78b9bd778ade81912679703b6b3599d8",
        "events/window_08_flows.csv":
            "0cab9f8e6e995a88ae5cd62300cb97f70c1808f8fda895cbb2f01c0a43aaaf3e",
        "events/window_08_prices.csv":
            "7cc2ef28fd638ecdb4cf24fca2e5790116c6f6afc5a4ffc7e3e2d8a823cb0cab",
        "events/window_09_flows.csv":
            "793d0a0ee44c002f058553ceb9976fc8a8121d3bde9a92e5ed9d837f6b5cfeb7",
        "events/window_09_prices.csv":
            "17feda0baa37093633c97a186d8bbf97aa06515e4f5375828b75e9c31a8bf110",
        "grid/grid.json":
            "3969d57e18b26bee1f648d40e01f3b500deea5adc1e45e926016f2f73029fe04",
        "grid/grid.tsv":
            "0de7a7d2798d67d87fd3a2a2e76f6f494072c5bbc7933ad59819f8b4f0dd5a9a",
        "grid/grid_daily_weekly.json":
            "4bd214424ba51eb3cfc307d760ce17eef2cff2625d97913b00e5143f5219970c",
        "grid/grid_daily_weekly.tsv":
            "c7d250372b626de67be9f4d91d34950ed5da3013ecbc479a0ceab0014597f17e",
        "report/grid.tsv":
            "0de7a7d2798d67d87fd3a2a2e76f6f494072c5bbc7933ad59819f8b4f0dd5a9a",
    },
    (1, 2000): {
        "bt/report.tsv":
            "00a26360080f64dca02f7e9539653bab0bc56c08716897c476ac3fb65a680c16",
        "data/bars_btc.csv":
            "24d0941302d3bb12ad0f6d11cdbdb9c37698fbeef74308696ab12fbc01557754",
        "data/bars_eth.csv":
            "a8075a7327f79a25db335eb177aa30ea3ac6787905f9dd10486f7e922b2cc524",
        "data/flows.csv":
            "b59d89708dc8423fd455f1c6fe6f1dc87ab922a4b6d42cfdd57e60e28837e42d",
        "data/options.csv":
            "7ee14ad95fc4b0ad034a0cf225b874a81f1b31c8afd824f916c52ab54786f06a",
        "events/events.csv":
            "0cab325ced0d737e8254531ecd73521f69439d258ee6fe3c68f1d046025866ab",
        "events/window_01_flows.csv":
            "a772c2891b11e9ed68b0015af79e6b4bba4eb6b1f69bdf04ecb2ea377eebace6",
        "events/window_01_prices.csv":
            "eb873254b4b16e37119a710d392b38b68b62ac876fe4084158e202c0dd89ea03",
        "events/window_02_flows.csv":
            "eed30f8b44ac9be2b792d1274e143f0fb30eab7ea50f2a97b8db845146fc484d",
        "events/window_02_prices.csv":
            "cc198277c9bd83b481e4584dd52b3ecc987f79916d0b9b08ac677d5b780cccd8",
        "events/window_03_flows.csv":
            "91fafaa32cf2d252b9e1b785c3ead08a1fa8ecf43354a3e498b6ee2f0a1d2add",
        "events/window_03_prices.csv":
            "e58cf3aaaf711c1e1e8463337fdca6564317a2775c412cbbc28e1a0ea4f0c595",
        "events/window_04_flows.csv":
            "5cd6bd00baf2a5e0de62a38b1396b19773df06d2866f33fd150ff699c740a57d",
        "events/window_04_prices.csv":
            "a2f5dd3f9fd9bc95b559c8e2c4feec59f20f201d1a4f4ca60be4f5578b9feec1",
        "events/window_05_flows.csv":
            "01a9e135d1fe4240e1078a6339675e6b4913ccf5cfe9e70ab82d0c9a1d0c1aed",
        "events/window_05_prices.csv":
            "d21d68ff1bbd6852e6583436fae3eec8e3703b513b23e50ab0e20560226053e2",
        "events/window_06_flows.csv":
            "6cc1140ccfb4dc7a83cd47e9c419b5ef540da440e42870d17f5dcf0e6a1a9fcb",
        "events/window_06_prices.csv":
            "ff27e3341d876538a5134deb1117d5ac959e74e638f7ffd5ec7eb6339d6c4772",
        "events/window_07_flows.csv":
            "753a889a8691dcac96a28a8f9ca4ec2e617c821047e4617d95c3d7094b0b5bdb",
        "events/window_07_prices.csv":
            "6ad0b27e2838e1ec7f748a173a390c0cec9b41ad0f42de708b49ca57af771eaf",
        "events/window_08_flows.csv":
            "02d9d6fc2519f658e04a027d72fc767a6ef0d78e139f07125b40238465c2fc91",
        "events/window_08_prices.csv":
            "360e63e422c248f7015371b032d1fd72a65d035d0980546f0611c40aff916b73",
        "events/window_09_flows.csv":
            "3b2c685950dbaf2f85efed0a2ea3406eadffbbc30036c930c1c9a930aabff9a3",
        "events/window_09_prices.csv":
            "09ffbd56574c308398c19cd47d77c5895abb26933286c0fb7bccd4f279c8fd6d",
        "grid/grid.json":
            "35e3987c5e1c00c06bb639ee49827b41c04b9fde6072fa8c795337d448351d3b",
        "grid/grid.tsv":
            "0ced1bd94fb392730d3df184d2008ed36951683d8d2b307dd2fe41137bd59ced",
        "grid/grid_daily_weekly.json":
            "b66ee0759d94274349b7531254ca7cb15b0b6696866d88e0c212adcc28f0faf2",
        "grid/grid_daily_weekly.tsv":
            "3515228544ee1df728676f9b1383ca1cb48b78176ea1892513005da908b4384b",
        "report/grid.tsv":
            "0ced1bd94fb392730d3df184d2008ed36951683d8d2b307dd2fe41137bd59ced",
    },
}

# Backtest stdout: events, trades and miss counts per leg.
GOLDEN_BACKTEST_STDOUT = {
    (9, 400): [
        "top: 40 events, 312 trades, 2404 entry misses, 4 exit misses",
        "bottom: 40 events, 296 trades, 2408 entry misses, 16 exit misses",
    ],
    (1, 2000): [
        "top: 200 events, 1568 trades, 65608 entry misses, 24 exit misses",
        "bottom: 200 events, 1568 trades, 65604 entry misses, 28 exit misses",
    ],
}


def run_pipeline(root, seed, hours, capsys):
    """synth, regress --daily-weekly, events --bars, backtest and report;
    returns the digests of every written file and the backtest stdout."""
    data = root / "data"
    assert main(["synth", "--seed", str(seed), "--hours", str(hours),
                 "--out", str(data)]) == 0
    assert main(["regress", "--flows", str(data / "flows.csv"),
                 "--bars-eth", str(data / "bars_eth.csv"),
                 "--bars-btc", str(data / "bars_btc.csv"),
                 "--daily-weekly", "--out", str(root / "grid")]) == 0
    assert main(["events", "--flows", str(data / "flows.csv"),
                 "--bars", str(data / "bars_eth.csv"),
                 "--out", str(root / "events")]) == 0
    capsys.readouterr()
    assert main(["backtest", "--flows", str(data / "flows.csv"),
                 "--options", str(data / "options.csv"),
                 "--out", str(root / "bt")]) == 0
    backtest_stdout = capsys.readouterr().out.splitlines()[:-1]
    assert main(["report", "--grid", str(root / "grid" / "grid.json"),
                 "--out", str(root / "report")]) == 0
    digests = {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(root.glob("*/*")) if p.is_file()}
    return digests, backtest_stdout


@pytest.mark.parametrize("seed,hours", sorted(GOLDEN))
def test_golden_output_digests(tmp_path, capsys, seed, hours):
    digests, backtest_stdout = run_pipeline(tmp_path, seed, hours, capsys)
    assert digests == GOLDEN[(seed, hours)]
    assert backtest_stdout == GOLDEN_BACKTEST_STDOUT[(seed, hours)]


# SHA-256 of grid_to_json(run_grid(...)) on one 40,000-hour market with the
# plants of acceptance criterion 3, classical and with hac_lags=4. The grid
# above sees only 400 and 2,000 hours; these pin the large-n fits.
GOLDEN_40K_SEED = 1
GOLDEN_40K_GRID = "a88547532f82c2b031e0b2a87dd72c60383710e0d00ccbb7ae86648921bf7290"
GOLDEN_40K_GRID_HAC4 = "567529738aeaa788ced2a5e7d7ade47aac4094aaedf2ce0125ee37c5e4cd46ce"


def grid_40k_digests() -> list[str]:
    data = gen_market(GOLDEN_40K_SEED, 40_000, GridPlants(
        usdt_eth_return=1.1e-5, eth_eth_return=-0.017, usdt_btc_return=6.3e-6,
        btc_btc_vol=-17.0, return_ar=-0.03))
    return [hashlib.sha256(grid_to_json(run_grid(data, hac_lags=hac_lags)).encode()).hexdigest()
            for hac_lags in (None, 4)]


def test_golden_40k_hour_grid_digests():
    assert grid_40k_digests() == [GOLDEN_40K_GRID, GOLDEN_40K_GRID_HAC4]


def test_40k_hour_grid_bits_do_not_depend_on_the_blas_kernel():
    # numpy's bundled OpenBLAS picks its kernel by the CPU, unless
    # OPENBLAS_CORETYPE in the process's own environment names another. A
    # grid fitted through BLAS gets other bits under another kernel.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(flowcast.__file__).resolve().parents[1]), str(here)])
    want = grid_40k_digests()
    for coretype in ("Haswell", "Sandybridge"):
        child = subprocess.run(
            [sys.executable, "-c", "import test_golden; print(*test_golden.grid_40k_digests())"],
            env=dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True)
        assert child.stdout.split() == want, coretype
