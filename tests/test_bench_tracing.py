"""The benchmark's tracer wraps flowcast functions by name; each must exist.

A rename that the tracer does not follow fails here rather than in a
traced benchmark run.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowcast

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = _load_tracing()
    assert tracing.TRACED
    for module_name, functions in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize("package", ["flowcast", "flowcast.cli"])
def test_import_loads_every_traced_module(package):
    # The tracer installs right after this import (the study worker after
    # ``import flowcast``, ``tracing.main`` after ``import flowcast.cli``) and
    # looks each traced module up in ``sys.modules``, so none may load later.
    src = str(Path(flowcast.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, {package}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'flowcast'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(ast.literal_eval(out.splitlines()[-1]))
    assert [name for name in _load_tracing().TRACED if name not in loaded] == []
