"""In-memory span tracer installed from the benchmark's own files.

The tracer rebinds public entry points of the package (module functions,
class methods, and the two SciPy eigensolvers that `stability` looks up at
call time) to thin wrappers that record one span per call:
``[name, start_ns, end_ns, parent, op, size]``.  ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` the benchmark operation the
call belongs to (-1 during set-up) and ``size`` an optional item count
(rows, bytes) measured after the call returns.  Nothing under ``src/``
changes; `uninstall` restores every original binding.

Self time is a span's duration minus the durations of its direct children;
calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# Span names follow "<module>.<entry point>"; the module part attributes
# self time to a layer.  Each entry: (owner path, attribute, span name).
MODULE_FUNCTIONS = [
    ("trijunction.evolution", "run", "evolution.run"),
    ("trijunction.evolution", "initial_state", "evolution.initial_state"),
    ("trijunction.evolution", "solve_banded", "evolution.solve_banded"),
    ("trijunction.parameterization", "coefficients", "parameterization.coefficients"),
    ("trijunction.parameterization", "psi_first_jet", "parameterization.psi_first_jet"),
    ("trijunction.parameterization", "curve_from_graph", "parameterization.curve_from_graph"),
    ("trijunction.domains", "boundary_curvature", "domains.boundary_curvature"),
    ("trijunction.domains", "boundary_hit", "domains.boundary_hit"),
    ("trijunction.diagnostics", "record_from_state", "diagnostics.record_from_state"),
    ("trijunction.diagnostics", "resample", "diagnostics.resample"),
    ("trijunction.diagnostics", "decay_fit", "diagnostics.decay_fit"),
    ("trijunction.diagnostics", "energy_law_residual", "diagnostics.energy_law_residual"),
    ("trijunction.stability", "max_eigenvalue", "stability.max_eigenvalue"),
    ("trijunction.stability", "assemble_forms", "stability.assemble_forms"),
    ("trijunction.stability", "stability_criterion", "stability.stability_criterion"),
    ("trijunction.steady", "find_stationary", "steady.find_stationary"),
    ("trijunction.storage", "write_trajectory", "storage.write_trajectory"),
    ("trijunction.storage", "read_trajectory", "storage.read_trajectory"),
    ("trijunction.storage", "write_network", "storage.write_network"),
    ("trijunction.storage", "read_network", "storage.read_network"),
    ("trijunction.config", "parse_config", "config.parse_config"),
    ("trijunction.tensions", "junction_matrix", "tensions.junction_matrix"),
    # max_eigenvalue imports eigsh and reads scipy.linalg.eigh at call time
    ("scipy.sparse.linalg", "eigsh", "stability.eigsh"),
    ("scipy.linalg", "eigh", "stability.eigh"),
]

METHODS = [
    ("trijunction.evolution", "Stepper", "step", "evolution.step"),
    ("trijunction.evolution", "Stepper", "enforce_bcs", "evolution.enforce_bcs"),
]
for _cls in ("ImplicitDomain", "CircleDomain", "EllipseDomain", "PolynomialDomain"):
    for _meth in ("line_exit", "psi_and_grad", "psi_grad_hess"):
        METHODS.append(("trijunction.domains", _cls, _meth, f"domains.{_meth}"))


def _rows_in(args, kwargs, result):
    return len(args[0])


def _rows_out(args, kwargs, result):
    return len(result)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


# (span name, {size name: size function}) measured after the call returns
SIZES = {
    "storage.write_trajectory": {"rows": _rows_in, "bytes": _bytes_written},
    "storage.read_trajectory": {"rows": _rows_out},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if sizes:
                rec[5] = {k: f(args, kwargs, result) for k, f in sizes.items()}
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Rebind every traced entry point wherever the package refers to it.

        A function imported by name into several modules (e.g.
        `junction_matrix`, `boundary_curvature`) is rebound in each of them,
        so calls made through any module see the wrapper.
        """
        package = [m for k, m in sys.modules.items()
                   if m is not None and (k == "trijunction" or k.startswith("trijunction."))]
        for path, attr, name in MODULE_FUNCTIONS:
            original = getattr(sys.modules[path], attr)
            wrapper = self.wrap(name, original)
            self._set(sys.modules[path], attr, wrapper)
            for mod in package:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._set(mod, key, wrapper)
        for path, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[path], cls_name)
            if attr in vars(cls):
                self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write the spans as CSV: idx,name,start_ns,end_ns,parent,op,size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx,name,start_ns,end_ns,parent,op,size\n")
            for idx, (name, t0, t1, parent, op, size) in enumerate(self.spans):
                size_txt = ";".join(f"{k}={v}" for k, v in (size or {}).items())
                fh.write(f"{idx},{name},{t0},{t1},{parent},{op},{size_txt}\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

LAYERS = ("evolution", "parameterization", "domains", "diagnostics", "stability",
          "steady", "storage", "config", "cli", "tensions")


def _percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-p * len(ordered) // 100)) - 1))
    return ordered[k]


class SpanIndex:
    """Lookups over recorded spans: durations, counts, parent links."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        child_ns = [0] * len(spans)
        for idx, (name, t0, t1, parent, _op, _size) in enumerate(spans):
            self.by_name[name].append(idx)
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.self_ns = [s[2] - s[1] - c for s, c in zip(spans, child_ns)]

    def durations_us(self, name):
        return [(self.spans[i][2] - self.spans[i][1]) / 1e3 for i in self.by_name[name]]

    def p(self, name, q):
        vals = self.durations_us(name)
        return _percentile(vals, q) if vals else 0.0

    def in_ops(self, name):
        return [i for i in self.by_name[name] if self.spans[i][4] >= 0]

    def scoped(self, name):
        """Spans of `name` inside the timed operations, or in set-up if none.

        Counts are taken over one scope only, so a ratio of counts repeats
        exactly however many operations fit into the run.
        """
        inside = self.in_ops(name)
        return inside if inside else self.by_name[name]

    def children_of(self, parents, name):
        wanted = set(parents)
        return [i for i in self.by_name[name] if self.spans[i][3] in wanted]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, traced_op_s, untraced_op_s):
    """Per-layer metric values keyed by the names in BENCHMARK.json."""
    ix = SpanIndex(spans)
    ops = ix.by_name["bench.op"]
    op_ns = sum(spans[i][2] - spans[i][1] for i in ops)
    n_ops = len(ops)
    steps = len(ix.in_ops("evolution.step"))

    m = {}
    m["evolution.step.us_p50"] = ix.p("evolution.step", 50)
    m["evolution.step.us_p99"] = ix.p("evolution.step", 99)
    step_self = [ix.self_ns[i] / 1e3 for i in ix.by_name["evolution.step"]]
    m["evolution.step.self_us_p50"] = _percentile(step_self, 50) if step_self else 0.0
    m["evolution.step.calls"] = _ratio(steps, n_ops)
    m["parameterization.coefficients.us_p50"] = ix.p("parameterization.coefficients", 50)
    m["parameterization.coefficients.calls_per_step"] = _ratio(
        len(ix.in_ops("parameterization.coefficients")), steps)
    m["evolution.enforce_bcs.us_p50"] = ix.p("evolution.enforce_bcs", 50)
    sweeps = ix.scoped("evolution.enforce_bcs")
    m["evolution.enforce_bcs.residual_evals_per_call"] = _ratio(
        len(ix.children_of(sweeps, "parameterization.psi_first_jet")), len(sweeps))
    m["evolution.solve_banded.us_p50"] = ix.p("evolution.solve_banded", 50)

    m["domains.line_exit.us_p50"] = ix.p("domains.line_exit", 50)
    m["domains.line_exit.calls_per_step"] = _ratio(len(ix.in_ops("domains.line_exit")), steps)
    exits = ix.scoped("domains.line_exit")
    m["domains.line_exit.newton_iters"] = _ratio(
        len(ix.children_of(exits, "domains.psi_and_grad")), len(exits))
    m["domains.psi_grad_hess.us_p50"] = ix.p("domains.psi_grad_hess", 50)

    m["diagnostics.record_from_state.us_p50"] = ix.p("diagnostics.record_from_state", 50)
    rec_ns = sum(spans[i][2] - spans[i][1] for i in ix.in_ops("diagnostics.record_from_state"))
    m["diagnostics.record_from_state.share"] = 100.0 * _ratio(rec_ns, op_ns)
    m["diagnostics.resample.us_p50"] = ix.p("diagnostics.resample", 50)
    m["domains.boundary_curvature.us_p50"] = ix.p("domains.boundary_curvature", 50)

    m["stability.max_eigenvalue.us_p50"] = ix.p("stability.max_eigenvalue", 50)
    m["stability.assemble_forms.us_p50"] = ix.p("stability.assemble_forms", 50)
    m["stability.eigsh.us_p50"] = ix.p("stability.eigsh", 50)
    solves = ix.scoped("stability.max_eigenvalue")
    m["stability.dense_fallbacks"] = _ratio(
        len(ix.children_of(solves, "stability.eigh")), len(solves))

    m["steady.find_stationary.us_p50"] = ix.p("steady.find_stationary", 50)
    solves = ix.scoped("steady.find_stationary")
    hits = [i for i in ix.by_name["domains.boundary_hit"]
            if _has_ancestor(spans, i, set(solves))]
    m["steady.boundary_hit.calls"] = _ratio(len(hits), len(solves))

    for name, key in (("storage.write_trajectory", "write_trajectory"),
                      ("storage.read_trajectory", "read_trajectory")):
        calls = ix.by_name[name]
        rows = sum((spans[i][5] or {}).get("rows", 0) for i in calls)
        m[f"storage.{key}.us_per_row"] = _ratio(sum(ix.durations_us(name)), rows)
    writes = ix.scoped("storage.write_trajectory")
    m["storage.write_trajectory.bytes"] = _ratio(
        sum((spans[i][5] or {}).get("bytes", 0) for i in writes), len(writes))
    m["config.parse_config.us"] = ix.p("config.parse_config", 50)
    for cmd in ("steady", "spectrum", "evolve", "verify"):
        m[f"cli.{cmd}.s"] = ix.p(f"cli.{cmd}", 50) / 1e6
    m["tensions.junction_matrix.calls"] = _ratio(
        len(ix.in_ops("tensions.junction_matrix")), n_ops)

    self_ns = defaultdict(int)
    for idx, span in enumerate(spans):
        if span[4] >= 0:
            self_ns[span[0].split(".", 1)[0]] += ix.self_ns[idx]
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = 100.0 * _ratio(self_ns[layer], op_ns)

    m["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
    ) if traced_op_s and untraced_op_s else 0.0
    return m


def _has_ancestor(spans, idx, ancestors):
    parent = spans[idx][3]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][3]
    return False
