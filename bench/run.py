"""Run one workload of the mifht benchmark and print its metrics.

    python3 bench/run.py --workload invert-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mifht is imported from ``src/``.
One op is ``parse_problem(text)`` -> ``run_command(spec)`` ->
``bundle.to_json()``, the CLI's path minus process start and file writes.
Load is a closed loop: one client sends the next op when the previous one
returns, until ``--seconds`` have passed.  Every answer goes through the
ground-truth gate in gate.py.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
blocks of untraced and traced ops, then runs the workload's fixed defect
probes, and prints the per-layer metrics; see README.md.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a JSON record of the run, with the spans of a
traced run, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS at 2 threads on a 2-core box ran invert ops ~40% slower and noisier
# than at 1 thread, so the benchmark pins one thread (never more than nproc)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3  # setup_s is the median of this many fresh processes
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many ops beyond it

WORKLOAD_NAMES = ("invert-stream", "config-sweep", "uniform-roundtrip")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
# failure causes reported by name in the per-layer metrics; others are summed
NAMED_FAILURES = ("ValueError", "RangeViolationError", "wrong_answer")
NAMED_WARNINGS = ("UserWarning", "TruncationWarning", "RuntimeWarning")


@dataclass
class Record:
    op: object  # workloads.Op
    outcome: object  # gate.Outcome
    traced: bool
    verdict: object = None  # gate.Verdict


def run_op(problems, text):
    """One CLI-equivalent op; exceptions and warnings are recorded, not raised."""
    from gate import Outcome

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            bundle = problems.run_command(problems.parse_problem(text))
            payload = bundle.to_json()
        except Exception as exc:  # a failing op is counted by the gate
            # keep names only: the traceback would pin the op's matrices
            return Outcome(perf_counter() - t0, exception=type(exc).__name__,
                           message=str(exc),
                           warnings=[w.category.__name__ for w in caught])
        latency = perf_counter() - t0
    return Outcome(latency, payload=payload, tables=bundle.tables,
                   warnings=[w.category.__name__ for w in caught])


def setup(name, seed):
    """Imports, the op stream and one warm-up op: everything before timing."""
    sys.path.insert(0, str(ROOT / "src"))
    from mifht import problems
    import gate
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.ops(seed)
    warm = workload.warmup_op()
    warm_verdict = gate.check(warm.truth, run_op(problems, warm.text))
    return problems, workload, ops, warm_verdict


def measure_setup(name, seed):
    """Median wall time from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times), times


def timed_loop(problems, workload, ops, seconds, tracer=None):
    """Closed loop for `seconds`; with a tracer, odd blocks of ops are traced.

    A block is one rotation through the workload's command kinds, so traced
    and untraced ops see the same mix.
    """
    records = []
    t0 = perf_counter()
    for op in ops:
        if perf_counter() - t0 >= seconds:
            break
        traced = tracer is not None and (op.index // workload.cycle) % 2 == 1
        if traced:
            tracer.install(op.index)
            try:
                outcome = run_op(problems, op.text)
            finally:
                tracer.uninstall()
        else:
            outcome = run_op(problems, op.text)
        records.append(Record(op, outcome, traced))
    return records, perf_counter() - t0


def tail_latency(sorted_ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond."""
    n = len(sorted_ms)
    k = max(n - TAIL_BEYOND, 1)  # 1-based rank of the order statistic
    return sorted_ms[k - 1], 100.0 * k / n


def gate_records(records):
    """Gate every record; True when the gate also rejects corrupted answers."""
    import gate

    gate_works = True
    probed = set()
    for rec in records:
        rec.verdict = gate.check(rec.op.truth, rec.outcome)
        kind = rec.op.truth.kind
        if rec.verdict.ok and kind not in probed:
            probed.add(kind)
            bad = gate.check(rec.op.truth, gate.corrupt(rec.op.truth, rec.outcome))
            gate_works = gate_works and not bad.ok
    return gate_works


def end_to_end(records, wall_s, setup_s):
    passed = [r for r in records if r.verdict.ok]
    lat = sorted(r.outcome.latency_s * 1e3 for r in passed)
    errors = [r.verdict.error for r in passed if r.verdict.error is not None]
    tail, tail_pct = tail_latency(lat) if lat else (0.0, 0.0)
    values = {
        "setup_s": setup_s,
        "ok_ops_per_s": len(passed) / wall_s,
        "op_p50_ms": statistics.median(lat) if lat else 0.0,
        "op_tail_ms": tail,
        "accuracy_digits": (statistics.mean(-math.log10(e) for e in errors)
                            if errors else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    worst = -math.log10(max(errors)) if errors else None
    return values, {"op_tail_percentile": tail_pct, "passed_ops": len(passed),
                    "accuracy_digits_min": worst}


def failure_counts(records):
    return Counter(r.verdict.cause for r in records if not r.verdict.ok)


def run_probes(problems, workload):
    """The workload's defect probes, untraced and outside the timed loop."""
    import gate

    records = [Record(op, run_op(problems, op.text), traced=False)
               for op in workload.probes()]
    for rec in records:
        rec.verdict = gate.check(rec.op.truth, rec.outcome)
    return records


def failure_shares(records, prefix):
    """`<prefix>fail_frac` and `<prefix><cause>` as shares of `records`."""
    n = max(len(records), 1)
    fails = failure_counts(records)
    out = {f"{prefix}fail_frac": (sum(fails.values()) / n, "1")}
    for cause in NAMED_FAILURES:
        out[f"{prefix}{cause}"] = (fails.pop(cause, 0) / n, "1")
    out[f"{prefix}other"] = (sum(fails.values()) / n, "1")
    return out


def per_layer(records, tracer, probe_records=()):
    traced = [r for r in records if r.traced]
    out = tracer.layer_metrics(len(traced))
    halves = [[r.outcome.latency_s for r in records if r.traced is flag and r.verdict.ok]
              for flag in (False, True)]
    overhead = (statistics.median(halves[1]) / statistics.median(halves[0]) - 1.0
                if all(halves) else 0.0)  # 0 when a half has no passed op
    out["trace.overhead_frac"] = (overhead, "1")
    n = len(records)
    warned = Counter(w for r in records for w in r.outcome.warnings)
    for cat in NAMED_WARNINGS:
        out[f"warnings.{cat}_per_op"] = (warned.pop(cat, 0) / n, "warnings/op")
    out["warnings.other_per_op"] = (sum(warned.values()) / n, "warnings/op")
    shares = failure_shares(records, "fail.")
    out["fail_frac"] = shares.pop("fail.fail_frac")
    out.update(shares)
    out.update(failure_shares(probe_records, "defects."))
    return out


# ---------------------------------------------------------------------------
# provenance


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}_per_instance"] = _read(index / "size")
    return model, caches


def provenance(seed):
    import mifht
    import numpy
    import scipy

    model, caches = _cpu()
    return {
        "workload_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mifht": mifht.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mifht" / "__init__.py").is_file():
        print(f"error: no mifht sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    problems, workload, ops, warm_verdict = setup(args.workload, args.seed)
    tracer, notes = None, {}
    if args.trace:
        from spans import COMPUTED, Tracer

        tracer = Tracer()
        notes = dict.fromkeys(COMPUTED, "computed")
    records, wall_s = timed_loop(problems, workload, ops, args.seconds, tracer)
    probe_records = run_probes(problems, workload) if tracer else []
    gate_works = gate_records(records)
    fails = failure_counts(records)
    correct = gate_works and any(r.verdict.ok for r in records)

    e2e, extra = end_to_end(records, wall_s, setup_s)
    layer = per_layer(records, tracer, probe_records) if tracer else {}
    if tracer:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    prov = provenance(args.seed)
    summary = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "wall_s": wall_s, "attempted": len(records), "failed": sum(fails.values()),
        "failures": dict(fails), "gate_rejects_corrupted": gate_works,
        "probes": len(probe_records),
        "probe_failures": dict(failure_counts(probe_records)),
        "warmup_passed": warm_verdict.ok, "setup_samples_s": setup_samples,
        **extra,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops in {wall_s:.2f} s, {summary['failed']} failed "
          f"{dict(fails)}")
    if probe_records:
        print(f"defect probes: {len(probe_records)}, failing by cause "
              f"{summary['probe_failures']}")
    notes.setdefault("op_tail_ms", f"p{extra['op_tail_percentile']:.1f}")
    for name, m in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{note}")
    print("provenance " + json.dumps(prov))

    OUT.mkdir(exist_ok=True)
    record = {"summary": summary, "provenance": prov, "metrics": metrics,
              "end_to_end": e2e,
              "ops": [[r.op.index, r.op.truth.kind, r.traced, r.outcome.latency_s,
                       r.verdict.ok, r.verdict.cause, r.verdict.error,
                       r.outcome.warnings, r.outcome.message] for r in records],
              "probes": [[r.op.index, r.op.truth.kind, r.outcome.latency_s,
                          r.verdict.ok, r.verdict.cause, r.verdict.error,
                          r.outcome.message] for r in probe_records]}
    if tracer:
        record["spans"] = tracer.spans
        record["missing_spans"] = tracer.missing
        record["count_hook_errors"] = dict(tracer.hook_errors)
        record["computed_counts"] = sorted(COMPUTED)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
