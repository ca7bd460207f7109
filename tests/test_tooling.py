"""Guards for tooling that binds package entry points by name.

bench/spans.py rebinds the functions and methods it traces with getattr and
setattr; a rename in the package would otherwise surface only when the
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from trijunction.evolution import Stepper

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = _load_spans()
    for owner, attr, _ in spans.MODULE_FUNCTIONS:
        assert callable(getattr(importlib.import_module(owner), attr)), (owner, attr)
    for owner, cls, meth, _ in spans.METHODS:
        getattr(getattr(importlib.import_module(owner), cls), meth)
    assert {"step", "enforce_bcs"} <= set(vars(Stepper))
