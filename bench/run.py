"""Benchmark harness for the trijunction package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from
`src/`.  One run is a closed loop in one fresh interpreter: set up the
workload, then repeat its operation until S seconds have passed (at least
once), checking every output.  BLAS is pinned to one thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s (median
of five fresh-process set-ups, from `import trijunction` to the first timed
call), solve_s (median time of one checked operation), peak_rss_mb and
accuracy_err (the workload's accuracy figure against the paper's
prediction).  Both times are the median wall time divided by the median
host factor of calibrate.py, measured next to each set-up and operation
(the ratio of medians, because one factor sample is noisier than the
drift it corrects); the raw wall times are in the report.

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics from the spans (see spans.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
with sample counts, gates, fingerprints and provenance.  The full record is
written to .bench_out/ in the checkout.
"""

import os

# Before numpy is imported anywhere: one BLAS thread (2-core machines
# otherwise spend more CPU than wall time in small dense solves).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # this process plus four fresh ones
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("disk_n200", "dents_escape_n48", "spectrum_batch", "cli_pipeline")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_package():
    if not (SRC / "trijunction" / "__init__.py").is_file():
        sys.exit(f"run.py: no package source at {SRC / 'trijunction'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import trijunction

    if Path(trijunction.__file__).resolve().parent != (SRC / "trijunction").resolve():
        sys.exit(f"run.py: imported trijunction from {trijunction.__file__}, not {SRC}")
    import workloads

    return workloads


def _high_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(values)[min(n - 1, int(-(-p * n // 100)) - 1)]
    return None


# ---------------------------------------------------------------------------
# provenance


def _blas_runtime_threads():
    """Threads OpenBLAS reports at run time, per bundled library."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "libscipy_openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = int(fn())
                    break
    return found


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy
    import scipy

    def blas(pkg):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_runtime": _blas_runtime_threads(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload in this process


def _child_setup_seconds(name, seed, quick):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    wall, factor = proc.stdout.split()[-2:]
    return float(wall), float(factor)


def setup_only(name, seed, quick):
    t0 = perf_counter()
    workloads = _import_package()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, quick, OUT)
    elapsed = perf_counter() - t0
    wl.teardown(state)
    import calibrate

    print(repr(elapsed), repr(calibrate.seconds() / calibrate.NOMINAL_S))


def run_workload(name, seed, seconds, trace, quick):
    t0 = perf_counter()
    workloads = _import_package()
    OUT.mkdir(exist_ok=True)
    import spans

    wl = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    state = wl.setup(seed, quick, OUT)
    setup_wall = [perf_counter() - t0]
    if tracer:
        tracer.uninstall()
    import calibrate

    # host factor before the first and after every operation
    cal = [calibrate.seconds() / calibrate.NOMINAL_S]
    setup_factor = [cal[0]]
    results, durations, traced = [], [], []
    min_ops = 2 if trace else 1  # a traced and an untraced operation
    deadline = perf_counter() + seconds
    try:
        while len(results) < min_ops or perf_counter() < deadline:
            k = len(results)
            on = tracer is not None and k % 2 == 1
            if on:
                tracer.op = k
                tracer.install()
            span = tracer.span if on else (lambda _name: nullcontext())
            start = perf_counter()
            try:
                with span("bench.op"):
                    res = wl.op(state, span)
            except Exception as exc:  # an operation that raises is a failed operation
                res = workloads.OpResult(attempted=1, failed=1, gates={"operation completes": False},
                                         notes=[f"raised {exc!r}"])
            finally:
                if on:
                    tracer.uninstall()
            durations.append(perf_counter() - start)
            traced.append(on)
            results.append(res)
            cal.append(calibrate.seconds() / calibrate.NOMINAL_S)
    finally:
        wl.teardown(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factors = [(a + b) / 2.0 for a, b in zip(cal, cal[1:])]

    spec = _spec()
    gates = {}
    for res in results:
        for g, ok in res.gates.items():
            gates[g] = gates.get(g, True) and ok
    fingerprints = results[0].fingerprints
    gates["fingerprints repeat bitwise across operations"] = all(
        r.fingerprints == fingerprints for r in results)
    figures = {}
    for res in results:
        for k, v in res.figures.items():
            figures.setdefault(k, []).append(v)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "operations": len(results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "gates": gates,
        "fingerprints": {k: float.hex(v) if isinstance(v, float) else v
                         for k, v in fingerprints.items()},
        "figures": {k: statistics.median(v) for k, v in figures.items()},
        "notes": sorted({n for r in results for n in r.notes}),
        "provenance": provenance(seed),
    }
    report["fail_rate"] = report["failed"] / report["attempted"]

    if trace:
        metrics = spans.layer_metrics(
            tracer.spans,
            [d for d, on in zip(durations, traced) if on],
            [d for d, on in zip(durations, traced) if not on],
        )
        tracer.write(OUT / f"spans_{name}_seed{seed}.csv")
        wanted = spec["per_layer"]
        report["span_counts"] = dict(sorted(Counter(s[0] for s in tracer.spans).items()))
        report["samples"] = {"operation_wall_s": durations, "traced": traced,
                             "host_factor": factors}
    else:
        for _ in range(SETUP_SAMPLES - 1):
            wall, factor = _child_setup_seconds(name, seed, quick)
            setup_wall.append(wall)
            setup_factor.append(factor)
        metrics = {
            "setup_s": statistics.median(setup_wall) / statistics.median(setup_factor),
            "solve_s": statistics.median(durations) / statistics.median(factors),
            "peak_rss_mb": peak_rss_mb,
            "accuracy_err": report["figures"][wl.accuracy],
        }
        wanted = spec["end_to_end"]
        report["samples"] = {"setup_s": setup_wall, "setup_host_factor": setup_factor,
                             "solve_s": durations, "host_factor": factors}
    report["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    (OUT / f"result_{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")
    _print_report(report, wl.accuracy)

    correct = all(gates.values())
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def _print_report(report, accuracy):
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"operations {report['operations']}  attempted {report['attempted']}  "
          f"failed {report['failed']}  fail_rate {report['fail_rate']:.4g}")
    samples = report.get("samples", {})
    for name, m in report["metrics"].items():
        line = f"  {name:<48} {m['value']:>14.6g} {m['unit']}"
        if name in samples:
            high = _high_percentile(samples[name])
            line += f"   median of n={len(samples[name])}"
            if high:
                line += f", wall p{high[0]:g} {high[1]:.6g}"
        elif name == "accuracy_err":
            line += f"   = {accuracy}"
        print(line)
    for name in ("setup_s", "solve_s"):
        if name in samples:
            print(f"  raw    {name} wall time median {statistics.median(samples[name]):.6g} s")
    print(f"  host factor median {statistics.median(samples['host_factor']):.4g} "
          f"(per-layer times are raw wall times)")
    for name, value in report["figures"].items():
        print(f"  figure {name:<41} {value:>14.6g}   median of n={report['operations']}")
    for gate, ok in report["gates"].items():
        print(f"  gate   {'PASS' if ok else 'FAIL'}  {gate}")
    for name, value in report["fingerprints"].items():
        print(f"  fingerprint {name} = {value}")
    for note in report["notes"]:
        print(f"  note   {note}")
    for name, count in report.get("span_counts", {}).items():
        print(f"  spans  {name:<44} {count:>10d}")
    prov = report["provenance"]
    print(f"  provenance nproc {prov['nproc']} ({prov['cpu_model']}), python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, blas {prov['blas']['numpy']} "
          f"threads {prov['blas_threads_runtime']}, commit {prov['commit']}")


# ---------------------------------------------------------------------------
# all workloads, and the self-check


def _child_run(name, seed, seconds, trace, quick):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, lines, result


def run_all(seed, seconds, trace):
    """Each workload in its own fresh interpreter, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc, lines, result = _child_run(name, seed, seconds, trace, quick=False)
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        if result is None or not result["correct"]:
            status = 1
            print(f"  ** {name}: run failed or a gate broke (exit {proc.returncode})")
            print(proc.stderr.strip()[-2000:])
    return status


def self_check():
    """Every workload at minimal length: names, units, gates, exact counts."""
    spec = _spec()
    problems, traced_counts = [], {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1, 1):
            proc, lines, result = _child_run(name, 1, 0, trace, quick=True)
            where = f"{name} trace {trace}"
            if result is None:
                problems.append(f"{where}: no result (exit {proc.returncode}) "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metric names/units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{where}: a correctness gate failed")
            expected_failed = result["attempted"] // 4 if name == "cli_pipeline" else 0
            if result["failed"] != expected_failed:
                problems.append(f"{where}: {result['failed']} failed, expected {expected_failed}")
            if trace:
                counts = {k: v["value"] for k, v in result["metrics"].items()
                          if v["unit"] == "count"}
                if traced_counts.setdefault(name, counts) != counts:
                    problems.append(f"{name}: traced counts differ between two runs")
            print(f"self-check {where}: {'ok' if result['correct'] else 'GATE FAIL'} "
                  f"(attempted {result['attempted']}, failed {result['failed']})")
    for p in problems:
        print(f"self-check problem: {p}")
    print(f"self-check {'PASSED' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal workload length")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        setup_only(args.workload, args.seed, args.quick)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)


if __name__ == "__main__":
    sys.exit(main())
