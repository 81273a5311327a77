"""Benchmark of flowcast's CLI pipeline and of its grid study as a library.

    python3 bench/run.py --workload cli-6k --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout: the program is the ``src/`` next to
this directory, run without installing it. Set-up writes a seeded synth
dataset and starts the study worker; each round then runs every CLI
command, in one or more passes, as a fresh ``python -m flowcast.cli``
child, with the planted and null study seeds in the worker between them.
A run is whole rounds, at least one; another round starts only if it
would end within ``--seconds`` at the mean round time so far. Outputs are
checked against computations made apart from the program (``checks.py``),
and every repeated command must write the bytes it wrote the first time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 2  # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    hours: int
    synth_flags: tuple[str, ...]
    command_reps: int  # passes over the CLI commands per round
    planted_seeds: int  # study seeds per round, spread evenly over the commands
    null_seeds: int
    planted_check: bool


# The starred share of one null seed has an sd near 6 pp; over 100 seeds the
# share's sd is near 0.6 pp, a fifth of the 3 pp band it is checked against.
WORKLOADS = {
    # A smaller ETH->ETH plant and return noise keep the ETH price above
    # about 430 on every seed (the defaults take half of all seeds below 300),
    # so each expiry lists four distinct strikes and every seed gives the
    # same 47,996 quotes: the backtest's work, quadratic in the instruments
    # listed, does not depend on the seed. Every planted 1 h cell still
    # clears p < 0.01 (at 6k hours the default USDT plants, against the
    # default noise, give t near 4 and some seeds miss it).
    "cli-6k": Workload(6_000, ("--eth-eth-ret", "-0.004", "--noise-sd", "0.005"),
                       command_reps=2, planted_seeds=5, null_seeds=100,
                       planted_check=True),
    # Criterion 8's dataset size: import dominates every command.
    "cli-400h": Workload(400, (), command_reps=5, planted_seeds=6,
                         null_seeds=100, planted_check=False),
}

DATA = "data"
COMMANDS = (  # (metric, CLI arguments, output directory)
    ("ingest_check_s", ["ingest-check", "--flows", "data/flows.csv", "--bars",
                        "data/bars_eth.csv", "--options", "data/options.csv"], None),
    ("regress_s", ["regress", "--flows", "data/flows.csv", "--bars-eth", "data/bars_eth.csv",
                   "--bars-btc", "data/bars_btc.csv", "--daily-weekly", "--out", "out/regress"],
     "out/regress"),
    ("events_s", ["events", "--flows", "data/flows.csv", "--asset", "ETH", "--bars",
                  "data/bars_eth.csv", "--out", "out/events"], "out/events"),
    ("backtest_s", ["backtest", "--flows", "data/flows.csv", "--options", "data/options.csv",
                    "--out", "out/backtest"], "out/backtest"),
    ("report_s", ["report", "--grid", "out/regress/grid.json", "--out", "out/report"],
     "out/report"),
)

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("ingest.parse_s", "s"), ("ingest.rows_parsed", "count"),
    ("ingest.parse_rows_per_s", "rows/s"), ("ingest.write_s", "s"),
    ("ingest.bytes_written", "bytes"),
    ("synth.gen_market_s", "s"), ("synth.gen_option_chain_s", "s"),
    ("series.net_inflows_s", "s"), ("series.returns_s", "s"),
    ("series.realized_vol_s", "s"), ("series.align_s", "s"), ("series.calls", "count"),
    ("regress.run_grid_s", "s"), ("regress.ols_fit_s", "s"), ("regress.significance_s", "s"),
    ("regress.cells", "count"), ("regress.cells_failed", "count"), ("regress.render_s", "s"),
    ("events.detect_extremes_s", "s"), ("events.extract_window_s", "s"),
    ("events.windows_written", "count"), ("events.windows_skipped", "count"),
    ("options.backtest_s", "s"), ("options.bucket_stats_s", "s"), ("options.report_s", "s"),
    ("options.quote_lookups", "count"), ("options.trades", "count"),
    ("options.lookup_hit_ratio", "ratio"),
    ("study.import_s", "s"), ("study.synth.gen_market_s", "s"),
    ("study.series.net_inflows_s", "s"), ("study.series.returns_s", "s"),
    ("study.series.realized_vol_s", "s"), ("study.series.align_s", "s"),
    ("study.series.calls", "count"), ("study.regress.run_grid_s", "s"),
    ("study.regress.ols_fit_s", "s"), ("study.regress.significance_s", "s"),
    ("study.regress.cells", "count"), ("study.regress.cells_failed", "count"),
)


@dataclass
class Result:
    seconds: float
    code: int
    stdout: str
    stderr: str
    trace: dict | None


class Runner:
    """Starts the program's processes one at a time and keeps their peak RSS:
    of the CLI commands, and of the study worker apart."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "FLOWCAST_LOG": "WARNING"}
        self.peak_rss_kb = 0
        self.worker_rss_kb = 0
        self.worker: subprocess.Popen | None = None
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self._n = 0

    def cli(self, args: list[str]) -> Result:
        """One CLI command as a fresh child; wall time from spawn to reaping."""
        self._n += 1
        stem = self.logs / f"{self._n:04d}"
        summary = stem.with_suffix(".trace.json")
        if self.trace:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(summary), *args]
        else:
            argv = [sys.executable, "-m", "flowcast.cli", *args]
        with open(stem.with_suffix(".out"), "wb") as out, \
                open(stem.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        trace = json.loads(summary.read_text()) if self.trace and summary.exists() else None
        return Result(seconds, proc.returncode, stem.with_suffix(".out").read_text(),
                      stem.with_suffix(".err").read_text(), trace)

    def start_worker(self) -> tuple[float, float]:
        """(seconds from spawn until flowcast is imported, import seconds)."""
        self.stop_worker()
        argv = [sys.executable, str(BENCH / "study.py")] + (["--trace"] if self.trace else [])
        start = time.perf_counter()
        self.worker = subprocess.Popen(argv, cwd=self.work, env=self.env, text=True,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        hello = self.worker.stdout.readline()
        seconds = time.perf_counter() - start
        if not hello:
            raise RuntimeError("study worker exited before importing flowcast")
        return seconds, json.loads(hello)["import_s"]

    def study(self, phase: str, seeds: list[int]) -> dict:
        self.worker.stdin.write(json.dumps({"phase": phase, "seeds": seeds}) + "\n")
        self.worker.stdin.flush()
        reply = self.worker.stdout.readline()
        if not reply:
            raise RuntimeError(f"study worker exited during the {phase} phase")
        return json.loads(reply)

    def stop_worker(self, kill: bool = False) -> None:
        """End the worker at end of input, or kill it, and reap it."""
        if self.worker is None:
            return
        worker, self.worker = self.worker, None
        worker.stdin.close()
        if kill:
            worker.kill()
        _, status, usage = os.wait4(worker.pid, 0)
        worker.returncode = os.waitstatus_to_exitcode(status)
        worker.stdout.close()
        self.worker_rss_kb = max(self.worker_rss_kb, usage.ru_maxrss)


class Layers:
    """Per-layer totals: set-up sums per set-up, round sums per round."""

    def __init__(self):
        self.setup: Counter = Counter()
        self.rounds: Counter = Counter()

    def add(self, summary: dict | None, in_setup: bool, prefix: str = "") -> None:
        if summary is None:
            return
        target = self.setup if in_setup else self.rounds
        for key, value in {**summary["seconds"], **summary["counts"]}.items():
            target[prefix + key] += value

    def metrics(self, setups: int, rounds: int) -> dict:
        v = Counter()
        for key, value in self.setup.items():
            v[key] += value / setups
        for key, value in self.rounds.items():
            v[key] += value / rounds
        v["ingest.parse_rows_per_s"] = (v["ingest.rows_parsed"] / v["ingest.parse_s"]
                                        if v["ingest.parse_s"] else 0.0)
        v["options.lookup_hit_ratio"] = (v["options.trades"] / v["options.quote_lookups"]
                                         if v["options.quote_lookups"] else 0.0)
        return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = BENCH / "_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(self.work, trace)
        self.inputs = checks.Inputs(self.work / DATA)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.times: dict[str, list[float]] = {metric: [] for metric, _, _ in COMMANDS}
        self.rates: dict[str, list[float]] = {"planted": [], "null": []}
        self.null_cells = self.null_starred = 0
        self.first_bytes: dict[str, dict] = {}
        self.layers = Layers()
        self.rounds = 0

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot read an output fails too
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")

    def setup(self) -> None:
        wl = self.workload
        for rep in range(SETUP_REPS):
            shutil.rmtree(self.work / DATA, ignore_errors=True)
            synth = self.runner.cli(["synth", "--seed", str(self.seed), "--hours", str(wl.hours),
                                     *wl.synth_flags, "--out", DATA])
            if synth.code != 0:
                raise RuntimeError(f"synth exited {synth.code}: {synth.stderr.strip()}")
            self.layers.add(synth.trace, in_setup=True)
            data = checks.digests(self.work / DATA)
            if rep == 0:
                self.first_bytes["synth"] = data
                self.check("setup", checks.check_setup, self.work / DATA, wl.hours)
            else:
                self.check("setup", checks.check_same_bytes, "synth", self.first_bytes["synth"],
                           data)
            worker_s, import_s = self.runner.start_worker()
            self.layers.setup["study.import_s"] += import_s
            # One seed of each phase first: the worker's first 40k-hour seed
            # takes about twice as long as the next ones.
            start = time.perf_counter()
            for phase, seed in (("planted", 0), ("null", 0)):
                reply = self.runner.study(phase, [seed])
                self.problems += reply["wrong"] + reply["failed"]
                self.layers.add(reply.get("trace"), in_setup=True, prefix="study.")
            self.setup_s.append(synth.seconds + worker_s + time.perf_counter() - start)

    def command(self, metric: str, args: list[str], out_dir: str | None) -> None:
        self.attempted += 1
        result = self.runner.cli(args)
        if result.code != 0:
            self.failed += 1
            print(f"{metric}: exit {result.code}: {result.stderr.strip()}", file=sys.stderr)
            return
        self.times[metric].append(result.seconds)
        self.layers.add(result.trace, in_setup=False)
        written = {"stdout": sha256(result.stdout.encode()).hexdigest()}
        if out_dir is not None:
            written.update(checks.digests(self.work / out_dir))
        if metric in self.first_bytes:
            self.check(metric, checks.check_same_bytes, metric, self.first_bytes[metric], written)
            return
        self.first_bytes[metric] = written
        out = self.work / "out"
        if metric == "ingest_check_s":
            self.check(metric, checks.check_ingest, result.stdout, self.inputs)
        elif metric == "regress_s":
            self.check(metric, checks.check_regress, out / "regress", self.inputs,
                       self.workload.planted_check)
        elif metric == "events_s":
            self.check(metric, checks.check_events, out / "events", self.inputs)
        elif metric == "backtest_s":
            self.check(metric, checks.check_backtest, out / "backtest" / "report.tsv",
                       self.inputs)
        elif metric == "report_s":
            self.check(metric, checks.check_report, out / "report" / "grid.tsv",
                       out / "regress" / "grid.tsv")

    def study(self, phase: str, seeds: list[int]) -> None:
        reply = self.runner.study(phase, seeds)
        self.attempted += len(seeds)
        self.failed += len(reply["failed"])
        for message in reply["failed"]:
            print(message, file=sys.stderr)
        self.problems += reply["wrong"]
        self.rates[phase] += [c / s for c, s in zip(reply["cells"], reply["seconds"])]
        if phase == "null":
            self.null_cells += sum(reply["cells"])
            self.null_starred += reply["starred"]
        self.layers.add(reply.get("trace"), in_setup=False, prefix="study.")

    def round(self) -> None:
        """Every command, each followed by its share of the round's study
        seeds, so that both kinds of sample span the whole round."""
        wl, r = self.workload, self.rounds
        planted = [10**6 + 1000 * self.seed + wl.planted_seeds * r + i
                   for i in range(wl.planted_seeds)]
        null = [2 * 10**6 + 10**5 * self.seed + wl.null_seeds * r + i
                for i in range(wl.null_seeds)]
        slots = wl.command_reps * len(COMMANDS)
        for k in range(slots):
            metric, args, out_dir = COMMANDS[k % len(COMMANDS)]
            self.command(metric, args, out_dir)
            for phase, seeds in (("planted", planted), ("null", null)):
                share = seeds[k * len(seeds) // slots:(k + 1) * len(seeds) // slots]
                if share:
                    self.study(phase, share)
        self.rounds += 1

    def run(self) -> dict:
        try:
            self.setup()
            start = time.perf_counter()
            # Whole rounds only: another starts if, at the mean round time so
            # far, it would end within --seconds.
            while (self.rounds == 0 or (time.perf_counter() - start) * (self.rounds + 1)
                   <= self.seconds * self.rounds):
                self.round()
        except BaseException:
            self.runner.stop_worker(kill=True)
            raise
        self.runner.stop_worker()
        with open(self.work / "samples.json", "w", encoding="utf-8") as fh:
            json.dump({"setup_s": self.setup_s, **self.times, **self.rates}, fh)
        self.check("null phase", checks.check_null_share, self.null_starred, self.null_cells)
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if self.runner.trace:
            metrics = self.layers.metrics(SETUP_REPS, self.rounds)
        else:
            metrics = self.end_to_end()
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def end_to_end(self) -> dict:
        def median(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        metrics = {"setup_s": {"value": median(self.setup_s), "unit": "s"}}
        for metric, values in self.times.items():
            metrics[metric] = {"value": median(values), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": self.runner.peak_rss_kb / 1024, "unit": "MB"}
        metrics["study_rss_mb"] = {"value": self.runner.worker_rss_kb / 1024, "unit": "MB"}
        for phase, values in self.rates.items():
            metrics[f"{phase}_cells_per_s"] = {"value": median(values), "unit": "cells/s"}
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "flowcast" / "cli.py").is_file():
        print(f"bench: no flowcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(bench.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
