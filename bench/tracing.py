"""Timing spans and counters around flowcast's cross-module calls.

The tracer replaces a public function such as ``flowcast.ingest.parse_bars``
with a wrapper in every loaded ``flowcast`` module that holds a reference to
it, so calls made through ``from .series import net_inflows`` are seen as
well as calls made through ``ingest.parse_bars``. Nothing under ``src/`` is
edited. Spans are kept in memory as ``(name, start, end, parent)`` and
summed when a command or study phase ends.

Run as a script, this file is the traced form of ``python -m flowcast.cli``:

    python3 bench/tracing.py SUMMARY.json <flowcast cli arguments...>

It imports the CLI, installs the tracer, runs the command and writes the
span totals and counters to SUMMARY.json. Its exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Span name of each traced function, keyed by the module that defines it.
TRACED = {
    "flowcast.ingest": {
        "parse_flows": "ingest.parse", "parse_bars": "ingest.parse",
        "parse_option_quotes": "ingest.parse",
        "flows_to_csv": "ingest.write", "bars_to_csv": "ingest.write",
        "quotes_to_csv": "ingest.write",
    },
    "flowcast.synth": {
        "gen_market": "synth.gen_market",
        "gen_option_chain": "synth.gen_option_chain",
    },
    "flowcast.series": {
        "net_inflows": "series.net_inflows", "returns": "series.returns",
        "realized_vol": "series.realized_vol", "align": "series.align",
    },
    "flowcast.regress": {
        "run_grid": "regress.run_grid", "ols_fit": "regress.ols_fit",
        "significance": "regress.significance",
        "grid_to_json": "regress.render", "grid_to_tsv": "regress.render",
        "grid_from_json": "regress.render",
    },
    "flowcast.events": {
        "detect_extremes": "events.detect_extremes",
        "extract_window": "events.extract_window",
    },
    "flowcast.options": {
        "run_percentile_backtest": "options.backtest",
        "bucket_stats": "options.bucket_stats",
        "report_to_tsv": "options.report",
    },
}


def _count_result(counts: Counter, span: str, result) -> None:
    """Counters measured on what a traced call returned."""
    if span == "ingest.parse":
        series = result[0] if isinstance(result, tuple) else result
        counts["ingest.rows_parsed"] += len(series)
    elif span == "ingest.write":
        counts["ingest.bytes_written"] += len(result.encode("utf-8"))
    elif span.startswith("series."):
        counts["series.calls"] += 1
    elif span == "regress.run_grid":
        counts["regress.cells"] += len(result)
        counts["regress.cells_failed"] += sum(c.error is not None for c in result)
    elif span == "events.extract_window":
        counts["events.windows_written"] += 1
    elif span == "options.backtest":
        diag = result[1]
        # Every instrument probed for an entry on every event.
        counts["options.quote_lookups"] += (diag.unmatched_entries + diag.unmatched_exits
                                            + diag.zero_price_skips + diag.trades)
        counts["options.trades"] += diag.trades


class Tracer:
    """Collects spans and counters for the calls listed in ``TRACED``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, span: str, fn):
        from flowcast.errors import FlowcastError

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FlowcastError:
                if span == "events.extract_window":
                    self.counts["events.windows_skipped"] += 1
                raise
            finally:
                self.spans[index] = (span, start, time.perf_counter(), parent)
                self._stack.pop()
            _count_result(self.counts, span, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a traced function in loaded flowcast modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "flowcast" or name.startswith("flowcast.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[module_name]
            for attr, span in functions.items():
                original = getattr(module, attr)
                wrapper = self._wrap(span, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)

    def summary(self) -> dict:
        """Seconds per span name, seconds in outermost spans, and counters."""
        totals: Counter = Counter()
        outermost = 0.0
        for name, start, end, parent in self.spans:
            totals[name + "_s"] += end - start
            if parent == -1:
                outermost += end - start
        return {"seconds": dict(totals), "outermost_s": outermost,
                "counts": dict(self.counts)}

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import flowcast.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = flowcast.cli.main(cli_args)
    command_s = time.perf_counter() - start
    summary = tracer.summary()
    summary["seconds"]["cli.import_s"] = import_s
    summary["seconds"]["cli.self_s"] = command_s - summary["outermost_s"]
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
