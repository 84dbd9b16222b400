"""Self-tests of the benchmark: op streams, the ground-truth gate, failure
accounting and the span tracer.  Run with ``python -m pytest bench``."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mifht import problems  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import N3_INTERVALS, N3_THETA, Op, Truth, problem_text  # noqa: E402

TWO = ((-2.0, -1.0), (1.0, 2.0))
THETA2 = ((1.0, 0.5), (0.5, 1.0))


def _first(stream, count):
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_repeat_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = (_first(wl.ops(seed), 8) for seed in (3, 3, 4))
    assert [op.text for op in a] == [op.text for op in b]
    assert [op.text for op in a] != [op.text for op in c]
    assert wl.warmup_op().text == wl.warmup_op().text


def _collides(nystrom):
    return (nystrom + 1) % 3 == 0 or (nystrom + 1) % 11 == 0


def _min_gap(intervals):
    return min((b[0] - a[1] for a, b in zip(intervals, intervals[1:])), default=1.0)


@pytest.mark.parametrize("name", ["config-sweep", "uniform-roundtrip"])
def test_streams_stay_clear_of_known_defects(name):
    ops = _first(workloads.WORKLOADS[name].ops(0), 96)
    if name == "config-sweep":
        sizes = [problems.parse_problem(op.text).param("nystrom") for op in ops]
        assert min(sizes) >= 64 and max(sizes) <= 256
        assert not any(_collides(m) for m in sizes)
        assert {op.truth.kind for op in ops} == {"in_range", "out_of_range", "gamma",
                                                 "injective"}
        assert {op.truth.spd for op in ops} == {True, False}
    gaps = [_min_gap(op.truth.intervals) for op in ops]
    assert min(gaps) >= workloads.GAP_MIN


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_defect_probes_are_fixed_and_cover_the_known_defects(name):
    probes = workloads.WORKLOADS[name].probes()
    assert [op.text for op in probes] == [
        op.text for op in workloads.WORKLOADS[name].probes()]
    specs = [problems.parse_problem(op.text) for op in probes]
    sizes = {s.param("nystrom") for s in specs} - {None}
    gaps = {_min_gap(op.truth.intervals) for op in probes}
    if name != "uniform-roundtrip":
        # every residue of nystrom + 1 mod 33, so 13 colliding sizes
        assert {(m + 1) % 33 for m in sizes} == set(range(33))
    if name != "invert-stream":
        assert min(gaps) == pytest.approx(0.01)
        assert workloads.GAP_MIN == pytest.approx(max(g for g in gaps if g < 0.3))


def _small_ops():
    phi0 = workloads.random_sqrt_coeffs(3, 16, 7)
    uni = workloads.random_sqrt_coeffs(2, 12, 9)
    return [
        Op(0, problem_text("invert", N3_INTERVALS, N3_THETA,
                           rhs="forward-of random-sqrt 16", nystrom=64, seed=7),
           Truth("phi", N3_INTERVALS, phi0, spd=True)),
        Op(1, problem_text("range-check", TWO, THETA2,
                           rhs="forward-of random-sqrt 16", nystrom=64, seed=7),
           Truth("in_range", TWO, spd=True)),
        Op(2, problem_text("range-check", TWO, THETA2, rhs="gaussian-bump",
                           nystrom=64), Truth("out_of_range", TWO, spd=True)),
        Op(3, problem_text("gamma-check", TWO, THETA2, nystrom=64),
           Truth("gamma", TWO, spd=True)),
        Op(4, problem_text("injectivity-report", TWO, THETA2, nystrom=64),
           Truth("injective", TWO, spd=True)),
        Op(5, problem_text("uniform-invert", TWO, "uniform",
                           rhs="forward-of random-sqrt 12", seed=9),
           Truth("uniform_f", TWO, uni)),
        Op(6, problem_text("uniform-invert", TWO, "uniform", rhs="gaussian-bump"),
           Truth("range_violation", TWO)),
    ]


@pytest.mark.parametrize("op", _small_ops(), ids=lambda op: op.truth.kind)
def test_gate_passes_right_answers_and_rejects_corrupted_ones(op):
    outcome = run.run_op(problems, op.text)
    assert gate.check(op.truth, outcome).ok
    bad = gate.check(op.truth, gate.corrupt(op.truth, outcome))
    assert not bad.ok and bad.cause == gate.WRONG_ANSWER


def test_failures_are_counted_against_attempted_ops():
    ok_op, corrupted_op, raising_op = _small_ops()[:3]
    good = run.run_op(problems, ok_op.text)
    records = [
        run.Record(ok_op, good, traced=False),
        run.Record(corrupted_op, gate.corrupt(
            corrupted_op.truth, run.run_op(problems, corrupted_op.text)), traced=False),
        run.Record(raising_op, gate.Outcome(0.01, exception="ValueError"),
                   traced=False),
    ]
    assert run.gate_records(records)
    assert run.failure_counts(records) == {"wrong_answer": 1, "ValueError": 1}
    e2e, extra = run.end_to_end(records, wall_s=2.0, setup_s=1.0)
    assert e2e["ok_ops_per_s"] == 0.5 and extra["passed_ops"] == 1
    assert e2e["op_p50_ms"] == pytest.approx(good.latency_s * 1e3)
    layer = run.per_layer(records, Tracer())
    assert layer["fail_frac"][0] == pytest.approx(2 / 3)
    assert layer["fail.ValueError"][0] == layer["fail.wrong_answer"][0] == 1 / 3
    assert layer["defects.fail_frac"][0] == 0.0
    probed = run.per_layer(records, Tracer(), records[1:])
    assert probed["defects.ValueError"][0] == probed["defects.wrong_answer"][0] == 0.5


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    value, pct = run.tail_latency([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_tracer_times_nested_spans_and_restores_every_binding():
    tracer = Tracer()
    assert tracer.missing == []
    op = _small_ops()[0]
    tracer.install(op.index)
    try:
        outcome = run.run_op(problems, op.text)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, key) is original
               for owner, key, original, _ in tracer._patches)
    assert gate.check(op.truth, outcome).ok
    names = [s[0] for s in tracer.spans]
    assert names.count("solver.assemble_K") == 2
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "linalg.svd"}
    assert parents == {"solver.solve_phi", "gamma.compute_F"}
    layer = tracer.layer_metrics(1)
    assert all(layer[f"{n}.self_ms_per_op"][0] >= -1e-3 for n in SPAN_NAMES)
    assert layer["nystrom.unknowns_per_op"][0] == 2 * 3 * 64
    assert layer["nystrom.reuse_ratio"][0] == 0.5
    assert math.isclose(layer["linalg.lu_factor.flops_per_op"][0],
                        (1 + 4) * 2 * 192 ** 3 / 3)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    op = _small_ops()[2]
    records = [run.Record(op, gate.Outcome(0.01, exception="ValueError"), traced=True)]
    run.gate_records(records)
    layer = run.per_layer(records, Tracer())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
