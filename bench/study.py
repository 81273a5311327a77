"""Study worker: the acceptance suite's plant-and-recover and white-noise
grid loops, run on flowcast as a library in one long-lived process.

    python3 bench/study.py [--trace]

The worker imports flowcast, prints one JSON line ``{"import_s": ...}`` and
then answers each request line ``{"phase": "planted" | "null", "seeds":
[...]}`` on stdin with one JSON line on stdout. It exits at end of input.
"""

from __future__ import annotations

import json
import sys
import time

from checks import CheckFailed, check_planted

PLANTED_HOURS = 40_000
NULL_HOURS = 1_200


def run_phase(phase: str, seeds: list[int], plants: dict, tracer) -> dict:
    from flowcast import regress, synth

    if tracer is not None:
        tracer.reset()
    hours = PLANTED_HOURS if phase == "planted" else NULL_HOURS
    out = {"seconds": [], "cells": [], "starred": 0, "failed": [], "wrong": []}
    for seed in seeds:
        start = time.perf_counter()
        try:
            cells = regress.run_grid(synth.gen_market(seed, hours, plants[phase]))
        except Exception as exc:  # one failed seed must not end the study
            out["failed"].append(f"{phase} seed {seed}: {type(exc).__name__}: {exc}")
            continue
        out["seconds"].append(time.perf_counter() - start)
        out["cells"].append(len(cells))
        dicts = [regress.cell_to_dict(c) for c in cells]
        errors = [d for d in dicts if "error" in d]
        if phase == "planted":
            try:
                check_planted(dicts)
            except CheckFailed as exc:
                out["wrong"].append(f"seed {seed}: {exc}")
        elif errors:
            out["wrong"].append(f"null seed {seed}: {len(errors)} cells failed: "
                                f"{errors[0]['error']}")
        out["starred"] += sum(bool(d["stars"]) for d in dicts)
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import flowcast  # noqa: F401 - the import is what is timed
    from flowcast.synth import GridPlants
    import_s = time.perf_counter() - start

    tracer = None
    if "--trace" in argv:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    plants = {
        "planted": GridPlants(usdt_eth_return=1.1e-5, eth_eth_return=-0.017,
                              usdt_btc_return=6.3e-6, btc_btc_vol=-17.0,
                              return_ar=-0.03),
        "null": GridPlants(),
    }
    print(json.dumps({"import_s": import_s}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_phase(request["phase"], request["seeds"], plants, tracer)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
