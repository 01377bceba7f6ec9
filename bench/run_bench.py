#!/usr/bin/env python3
"""Benchmark of the declangevin sampler.

    python3 bench/run_bench.py --workload mixture --seed 1 --seconds 16 --trace 0
    python3 bench/run_bench.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs a closed loop with one operation in flight; the
BLAS thread count is left at its default and recorded.  ``--trace 0``
reports the end-to-end metrics of one workload, with its timings scaled to a
reference speed of the machine (see REFERENCE_S); ``--trace 1`` reports the
per-layer metrics of a traced pass, unscaled.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record, with the machine it ran on, is written to
``bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.  ``--smoke`` runs
every workload at a tiny size through both passes in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import BOUNDARIES, TARGETS, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "agent_steps_per_s": "agent-steps/s",
    "experiment_s": "s",
    "setup_s": "s",
    "import_s": "s",
    "peak_mb": "MB",
    "ok_ops_frac": "fraction",
}
MODULES = ("declangevin", "declangevin.cli", "declangevin.graphs",
           "declangevin.langevin", "declangevin.metrics", "declangevin.models",
           "declangevin.pushsum", "declangevin.trace")
# per-layer metric -> unit
PER_LAYER = {
    "graphs.connectivity_s": "s",
    "graphs.graph_at_s": "s",
    "graphs.mixing_at_s": "s",
    "graphs.mixing_at_calls": "count",
    "graphs.mixing_builds": "count",
    "graphs.mixing_reuse_ratio": "fraction",
    "pushsum.mix_s": "s",
    "pushsum.mix_calls": "count",
    "pushsum.consensus_s": "s",
    "langevin.step_self_s": "s",
    "langevin.step_us_p50": "us",
    "langevin.step_us_p99": "us",
    "langevin.noise_s": "s",
    "langevin.noise_draws": "count",
    "langevin.run_self_s": "s",
    "langevin.ensemble_ms_per_step": "ms",
    "models.data_s": "s",
    "models.grad_s": "s",
    "models.grad_calls": "count",
    "metrics.w2_s": "s",
    "metrics.w2_fits": "count",
    "metrics.auc_s": "s",
    "metrics.auc_calls": "count",
    "metrics.monitor_s": "s",
    "trace.write_s": "s",
    "trace.bytes": "bytes",
    "cli.self_s": "s",
    **{f"{module}.import_s": "s" for module in MODULES},
    "trace_overhead_frac": "fraction",
}
# least rounds of a timed run, and least import children and set-up calls
# per run; the traced pass takes IMPORT_SAMPLES importtime children and at
# least MIN_ROUNDS untraced/traced pairs
MIN_ROUNDS = 3
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 9
# The machine's speed drifts: for minutes at a time the 2-core machine the
# benchmark was tuned on ran 1.5x slower or more, which moved every timing
# of a run at once.  A timed run therefore also times a fixed
# reference loop between its samples, and scales its timings to the speed
# at which that loop takes REFERENCE_S, its median there at the usual speed.
REFERENCE_S = 0.0085
IMPORT_CODE = ("import time; t = time.perf_counter(); import declangevin.cli; "
               "print(repr(time.perf_counter() - t))")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_package():
    """Import declangevin from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "declangevin" / "__init__.py").is_file():
        raise BenchError(f"no declangevin sources under {src}")
    sys.path.insert(0, str(src))
    import declangevin
    import declangevin.cli
    if Path(declangevin.__file__).resolve().parent != (src / "declangevin").resolve():
        raise BenchError(f"declangevin was imported from {declangevin.__file__}")
    return declangevin


def median(values) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def attempt(self, fn, *args) -> bool:
        self.attempted += 1
        try:
            fn(*args)
        except workloads.CheckFailed as exc:
            self.failures.append(f"check: {exc}")
            return False
        except Exception:  # the loop must go on; the failure is counted
            self.failures.append(traceback.format_exc().strip().splitlines()[-1])
            return False
        return True


def import_child(per_module: bool):
    """``import declangevin.cli`` in a fresh interpreter: its time in seconds
    and, under ``-X importtime``, each package module's cumulative time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + (["-X", "importtime"] if per_module else []) \
        + ["-c", IMPORT_CODE]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        raise BenchError(f"importing declangevin.cli failed: {tail}")
    modules = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in MODULES:
            modules[parts[2].strip()] = int(parts[1]) / 1e6
    return float(proc.stdout.split()[-1]), modules


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "seed": seed,
        "git_commit": git_commit(),
    }


def timed_op(wl, rec, tally):
    """One operation; (experiment_s, sampling_s), or None when it failed."""
    mark = rec.mark()
    if not tally.attempt(wl.op, rec):
        return None
    sampling = rec.durations(wl.sampling, mark)
    if len(sampling) != 1:
        raise BenchError(f"the sampling call {wl.sampling} was not timed "
                         f"once but {len(sampling)} times")
    return rec.durations(wl.root, mark)[0], sampling[0]


def stat(values, unit: str) -> dict:
    """Median with sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    entry = {"value": median(values), "unit": unit, "samples": len(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            entry[f"p{pct}"] = float(np.percentile(values, pct))
            break
    return entry


class ReferenceLoop:
    """Fixed work, timed between a run's samples to follow the machine's
    speed: interpreter arithmetic, numpy arithmetic on freshly allocated
    arrays, and gathers of random rows from a table larger than the caches,
    in roughly equal parts.  Slow spells slowed the gathers most,
    as they did the memory-bound operations."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((32768, 128))
        self.rows = rng.integers(0, len(self.table), (300, 32))
        self.readings: list = []

    def work(self) -> None:
        total = 0
        for i in range(60000):
            total += i * i
        x = np.arange(262144, dtype=float)
        for _ in range(6):
            x = np.sqrt(x * 1.0001 + 1.0)
        for rows in self.rows:
            self.table[rows].sum(axis=0)

    def around(self, fn, *args):
        """``fn(*args)``, and the index of the reading taken just before it;
        another is taken just after it, which the next sample shares."""
        if not self.readings:
            self.readings.append(self.seconds())
        index = len(self.readings) - 1
        result = fn(*args)
        self.readings.append(self.seconds())
        return result, index

    def near(self, index: int) -> float:
        """Median of the four readings from two before the sample at
        ``index`` to two after it, fewer at the ends of the run."""
        return median(self.readings[max(0, index - 1):index + 3])

    def seconds(self) -> float:
        """Seconds of the work, the fastest of three."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - start)
        return best


def scaled(pairs, reference, unit: str, rate: bool = False) -> dict:
    """``stat`` of (raw value, reading index) samples, each scaled to the
    speed at which the reference loop takes REFERENCE_S; a rate scales
    inversely.  The median of the raw values is kept as ``raw``."""
    factors = [REFERENCE_S / reference.near(i) for _, i in pairs]
    entry = stat([v / f if rate else v * f for (v, _), f in zip(pairs, factors)],
                 unit)
    entry["raw"] = median([v for v, _ in pairs])
    return entry


def timed_pass(wl, seconds, tally, n_imports, n_setups) -> tuple:
    """End-to-end metrics from rounds of one operation, one import child and
    one stand-alone set-up, run until their time adds up to ``seconds``, and
    at least MIN_ROUNDS rounds; the reference loop is timed between any two
    of them.  The tracemalloc pass sits after the first round, so that the
    samples of every metric spread over the whole run.  Returns the metrics
    and the speed record."""
    rec, reference = Recorder(), ReferenceLoop()
    # samples as (raw value, index of the reference reading before it)
    ops, setups, imports = [], [], []
    peak, spent, rounds = None, 0.0, 0

    def sample(fn, *args):
        mark = rec.mark()
        result, index = reference.around(fn, *args)
        setups.extend((s, index) for s in rec.durations("cli.prepare", mark))
        return result, index

    def import_sample():
        (total, _), index = sample(import_child, False)
        imports.append((total, index))

    while rounds < MIN_ROUNDS or spent < seconds:
        start = time.perf_counter()
        with rec:
            rec.install(BOUNDARIES)
            result, index = sample(timed_op, wl, rec, tally)
            if result is not None:
                ops.append((*result, index))
            import_sample()
            sample(tally.attempt, wl.setup)
        spent += time.perf_counter() - start
        rounds += 1
        if peak is None:
            peak, _ = reference.around(memory_pass, wl, tally)
    with rec:
        rec.install(BOUNDARIES)
        while len(imports) < n_imports:
            import_sample()
        while len(setups) < n_setups:
            if not sample(tally.attempt, wl.setup)[0]:
                break
    if not ops or not setups:
        raise BenchError(f"no operation succeeded: {tally.failures[:3]}")
    speed = {"reference_s": median(reference.readings),
             "samples": len(reference.readings)}
    return {
        "agent_steps_per_s": scaled([(wl.agent_steps / s, i) for _, s, i in ops],
                                    reference, "agent-steps/s", rate=True),
        "experiment_s": scaled([(e, i) for e, _, i in ops], reference, "s"),
        "setup_s": scaled(setups, reference, "s"),
        "import_s": scaled(imports, reference, "s"),
        "peak_mb": {"value": peak / 1e6, "unit": "MB", "samples": 1},
        "ok_ops_frac": {"value": 1.0 - len(tally.failures) / tally.attempted,
                        "unit": "fraction", "samples": tally.attempted},
    }, speed


def memory_pass(wl, tally) -> int:
    """Peak traced heap of one operation, in bytes, under tracemalloc; the
    check of its output runs after the trace stops."""
    peak = []

    def measured(rec):
        tracemalloc.start()
        try:
            result = wl.run(rec)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        wl.check(result)

    gc.collect()
    with Recorder() as rec:
        rec.install(BOUNDARIES)
        tally.attempt(measured, rec)
    return peak[0]


def traced_pass(wl, seconds, tally, n_imports, span_file) -> tuple:
    """Alternate untraced and traced operations, at least MIN_ROUNDS pairs;
    per-layer metrics from the traced ones, and the tracing overhead as the
    median ratio within a pair, so that drift of the machine's speed between
    pairs cancels."""
    module_import = {m: [] for m in MODULES}
    for _ in range(n_imports):
        for module, secs in import_child(per_module=True)[1].items():
            module_import[module].append(secs)
    full = Recorder()
    ratios, pairs = [], 0
    start = time.perf_counter()
    while pairs < MIN_ROUNDS or time.perf_counter() - start < seconds:
        with Recorder() as plain:
            plain.install(BOUNDARIES)
            untraced = timed_op(wl, plain, tally)
        with full:
            full.install(TARGETS)
            traced = timed_op(wl, full, tally)
        pairs += 1
        if untraced is not None and traced is not None:
            ratios.append(traced[0] / untraced[0])
    full.dump(span_file)
    if not ratios:
        raise BenchError(f"no operation succeeded: {tally.failures[:3]}")
    n_ops = len(full.durations(wl.root))
    metrics = layer_metrics(full, n_ops, wl)
    for module, values in module_import.items():
        if values:
            metrics[f"{module}.import_s"] = stat(values, "s")
    metrics["trace_overhead_frac"] = {
        "value": median(ratios) - 1.0, "unit": "fraction", "samples": len(ratios)}
    return metrics, sorted(set(full.absent))


def layer_metrics(rec, n_ops, wl) -> dict:
    ids, dur, self_ns = rec.table()
    index = {name: i for i, name in enumerate(rec.names)}

    def mask(*names):
        return np.isin(ids, [index[n] for n in names if n in index])

    def total(*names):
        return float(dur[mask(*names)].sum()) / 1e9 / n_ops

    def own(*names):
        return float(self_ns[mask(*names)].sum()) / 1e9 / n_ops

    def calls(*names):
        return float(mask(*names).sum()) / n_ops

    def present(*names):
        return any(n in rec.installed for n in names)

    steps_us = dur[mask("langevin.step")] / 1e3
    out = {}

    def put(name, value, *spans, samples=None):
        if value is not None and (not spans or present(*spans)):
            out[name] = {"value": value, "unit": PER_LAYER[name],
                         "samples": n_ops if samples is None else samples}

    put("graphs.connectivity_s", total("graphs.connectivity"), "graphs.connectivity")
    put("graphs.graph_at_s", total("graphs.graph_at"), "graphs.graph_at")
    put("graphs.mixing_at_s", total("graphs.mixing_at"), "graphs.mixing_at")
    put("graphs.mixing_at_calls", calls("graphs.mixing_at"), "graphs.mixing_at")
    put("graphs.mixing_builds", calls("graphs.build_mixing"), "graphs.build_mixing")
    lookups = calls("graphs.mixing_at")
    put("graphs.mixing_reuse_ratio",
        1.0 - calls("graphs.build_mixing") / lookups if lookups else None,
        "graphs.mixing_at", "graphs.build_mixing")
    put("pushsum.mix_s", total("pushsum.mix"), "pushsum.mix")
    put("pushsum.mix_calls", calls("pushsum.mix"), "pushsum.mix")
    put("pushsum.consensus_s", total("pushsum.consensus"), "pushsum.consensus")
    put("langevin.step_self_s", own("langevin.step"), "langevin.step")
    if len(steps_us):
        put("langevin.step_us_p50", float(np.percentile(steps_us, 50)),
            "langevin.step", samples=len(steps_us))
    if len(steps_us) * 0.01 >= 10:
        put("langevin.step_us_p99", float(np.percentile(steps_us, 99)),
            "langevin.step", samples=len(steps_us))
    put("langevin.noise_s", total("langevin.noise"), "langevin.noise")
    put("langevin.noise_draws", calls("langevin.noise"), "langevin.noise")
    put("langevin.run_self_s", own("langevin.run"), "langevin.run")
    if calls("langevin.ensemble"):
        put("langevin.ensemble_ms_per_step",
            total("langevin.ensemble") * 1e3 / wl.iters, "langevin.ensemble")
    put("models.data_s", total("models.data"), "models.data")
    put("models.grad_s", total("models.grad"), "models.grad")
    put("models.grad_calls", calls("models.grad"), "models.grad")
    put("metrics.w2_s", total("metrics.w2_fit", "metrics.w2"),
        "metrics.w2_fit", "metrics.w2")
    put("metrics.w2_fits", calls("metrics.w2_fit"), "metrics.w2_fit")
    put("metrics.auc_s", total("metrics.auc"), "metrics.auc")
    put("metrics.auc_calls", calls("metrics.auc"), "metrics.auc")
    put("metrics.monitor_s", total("metrics.monitor"), "metrics.monitor")
    put("trace.write_s", total("trace.write"), "trace.write")
    put("trace.bytes", wl.bytes, "trace.write")
    put("cli.self_s", own("cli.main", "cli.prepare", "cli.run_experiment"),
        "cli.prepare")
    return out


def run(dl, name, seed, seconds, trace, small=False) -> dict:
    OUT.mkdir(exist_ok=True)
    env = environment(seed)
    wl = workloads.make(name, dl, seed, OUT, small)
    n_imports, n_setups = (1, 1) if small else (IMPORT_SAMPLES, SETUP_SAMPLES)
    # a small operation fills caches and lazy imports first, as a user's
    # first run in a process would; it is neither timed nor counted
    warm = workloads.make(name, dl, seed, OUT, small=True)
    with Recorder() as rec:
        rec.install(BOUNDARIES)
        Tally().attempt(warm.op, rec)
    tally = Tally()
    absent, speed = [], None
    if trace:
        span_file = OUT / f"spans_{name}_seed{seed}.csv"
        metrics, absent = traced_pass(wl, seconds, tally, n_imports, span_file)
        wanted = PER_LAYER
    else:
        metrics, speed = timed_pass(wl, seconds, tally, n_imports, n_setups)
        wanted = END_TO_END
    missing = [m for m in wanted if m not in metrics]
    for m in missing:
        # the contract asks for every metric; absent ones read 0 and are listed
        metrics[m] = {"value": 0.0, "unit": wanted[m], "samples": 0}
    record = {
        "workload": name, "why": workloads.WHY[name], "seed": seed,
        "seconds": seconds, "trace": trace, "small": small,
        "environment": env, "speed": speed, "metrics": metrics,
        "absent_metrics": missing, "absent_targets": absent,
        "attempted": tally.attempted, "failed": len(tally.failures),
        "failed_ops_frac": len(tally.failures) / max(tally.attempted, 1),
        "failures": tally.failures,
    }
    path = OUT / f"BENCH_{name}_seed{seed}_trace{trace}{'_small' if small else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} operations, "
          f"{record['failed']} failed (failed_ops_frac "
          f"{record['failed_ops_frac']:.4g})")
    env = record["environment"]
    print(f"  machine: nproc {env['nproc']}, {env['cpu']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
          f"threads {env['blas_threads']}, commit {env['git_commit'][:12]}")
    if record["speed"]:
        print(f"  reference loop {record['speed']['reference_s'] * 1e3:.4g} ms "
              f"(n={record['speed']['samples']}); timings are scaled to "
              f"{REFERENCE_S * 1e3:.4g} ms, raw ones are not")
    for name, entry in record["metrics"].items():
        tail = "".join(f", {k} {v:.6g}" for k, v in entry.items()
                       if k.startswith("p") or k == "raw")
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']:14s}"
              f" n={entry['samples']}{tail}")
    for name in record["absent_metrics"]:
        print(f"  absent: {name}")
    for target in record["absent_targets"]:
        print(f"  absent target: {target}")
    for failure in record["failures"]:
        print(f"  failure: {failure}")


def summary(record) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    })


def smoke(dl) -> int:
    """Every workload at a tiny size through both passes; checks that each
    reports exactly the metrics BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in declared["end_to_end"]],
            1: [m["name"] for m in declared["per_layer"]]}
    ok = {w["name"] for w in declared["workloads"]} <= set(workloads.WHY)
    for name in workloads.WHY:
        for trace in (0, 1):
            record = run(dl, name, 0, 0, trace, small=True)
            report(record)
            if record["failed"] or sorted(record["metrics"]) != sorted(want[trace]):
                ok = False
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload small, both passes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        dl = load_package()
        if args.smoke:
            return smoke(dl)
        record = run(dl, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(summary(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
