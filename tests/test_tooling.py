"""Guards for files outside the package that depend on its names.

bench/spans.py rebinds the functions and methods it traces with getattr and
setattr; a rename in the package would otherwise surface only when the
benchmark runs.  The README's config example documents the config schema; a
key added to or removed from the schema would otherwise leave it stale.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from trijunction.config import SCALAR_KEYS, parse_config
from trijunction.evolution import Stepper

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_readme_config_block_matches_schema():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parse_config(block)
    keys = {line.split("#", 1)[0].split("=", 1)[0].strip()
            for line in block.splitlines() if "=" in line.split("#", 1)[0]}
    assert set(SCALAR_KEYS) <= keys, sorted(set(SCALAR_KEYS) - keys)
