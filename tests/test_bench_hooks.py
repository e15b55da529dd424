"""The benchmark's tracer must find every name it traces.  bench/tests lies
outside the Tier-1 test paths, so without this check a name deleted or
renamed in src/ (from_K, rho_map, ...) would silently drop out of the
per-layer counts of bench/run.py."""

import importlib.util
import sys
from pathlib import Path

# the tracer reads every vahlen module from sys.modules
from vahlen import (cli, clifford, fields, groups, halfspace,  # noqa: F401
                    linalg, matrices, quadratic, suites)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py, read with bytecode writing off to leave bench/ as
    it is."""
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_hooks_every_traced_name():
    assert _load_tracer().Tracer().missing == []
