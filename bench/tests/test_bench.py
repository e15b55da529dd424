"""Self-tests of the benchmark: seeded inputs, stored expectations, tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from vahlen import cli  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def first_cycle(workload):
    return [json.dumps(workload.argv(i)) for i in range(workload.cycle)]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_outputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert first_cycle(a) == first_cycle(b)
    runs = [run.run_op(cli, w.argv(0)) for w in (a, b)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][2] == runs[1][2]
    assert a.check(0, runs[0][0], runs[0][2]) is None


@pytest.mark.parametrize("name", ["verify-q", "act-cold"])
def test_other_seed_other_inputs(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert first_cycle(a) != first_cycle(b)


@pytest.mark.parametrize("name", ["census-gf", "enumerate-gf3"])
def test_stored_expectations_match_fresh_run(name):
    w = workloads.build(name, 0)
    for i in range(w.cycle):
        rc, _, out = run.run_op(cli, w.argv(i))
        assert w.check(i, rc, out) is None


def test_verify_property_names_match_fresh_run():
    w = workloads.build("verify-q", 0)
    rc, _, out = run.run_op(cli, w.argv(0))
    assert rc == 0
    names = [p["name"] for p in json.loads(out)["properties"]]
    assert names == workloads.EXPECTED["verify-q"]["properties"]


def test_act_inputs_alternate_point_types_and_pass():
    w = workloads.build("act-cold", 3)
    assert {w.boundary_input(i) for i in range(4)} == {False, True}
    for i in range(4):
        rc, _, out = run.run_op(cli, w.argv(i))
        assert w.check(i, rc, out) is None


def test_wrong_output_fails_the_gate():
    w = workloads.build("census-gf", 0)
    i = next(k for k in range(w.cycle)
             if w.config(k)["report"]["orbit_sizes"] == [12, 12])
    rc, _, out = run.run_op(cli, w.argv(i))
    assert rc == 1 and w.check(i, rc, out) is None
    report = json.loads(out)
    report["orbit_sizes"] = [24]
    assert w.check(i, rc, json.dumps(report)) is not None
    assert w.check(i, 0, out) is not None


def test_tracer_rebinds_imported_copies_and_restores_them():
    from vahlen import groups, halfspace, matrices

    original = groups.matrix_to_CU
    t = tracing.Tracer()
    t.install()
    try:
        assert halfspace.matrix_to_CU is groups.matrix_to_CU
        assert matrices.matrix_to_CU is not original
        assert matrices._CONDITIONS[3] is matrices._condition3
    finally:
        t.uninstall()
    assert halfspace.matrix_to_CU is original
    assert matrices.matrix_to_CU is original
    assert t.missing == []


def test_traced_op_counts_layers():
    w = workloads.build("act-cold", 5)
    t = tracing.Tracer()
    t.begin_op(0)
    t.install()
    try:
        rc, _, out = run.run_op(cli, w.argv(0))
    finally:
        t.uninstall()
        t.end_op()
    assert w.check(0, rc, out) is None
    totals, ratios = t.totals()
    assert totals["groups.iso_calls"] > 0
    assert totals["halfspace.mobius_calls"] > 0
    assert totals["fields.scalar_ops"] > 0
    assert ratios["clifford.pair_reuse"] >= 1
    assert t.spans and all(s[5] == 0 for s in t.spans)
    metrics = run.per_layer(t, [1.0], [1.5])
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: m["unit"] for k, m in metrics.items()}


def test_end_to_end_metrics_match_benchmark_json():
    w = workloads.WORKLOADS["verify-q"]
    metrics = run.end_to_end([0.5] * w.min_ops, [0.1] * 5, w)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: m["unit"] for k, m in metrics.items()}


def test_tail_percentile_leaves_ten_samples_beyond():
    for name in NAMES:
        cls = workloads.WORKLOADS[name]
        pct = run.tail_percentile(cls)
        samples = list(range(cls.min_ops))
        beyond = cls.min_ops - 1 - run.percentile(samples, pct)
        assert beyond >= run.TAIL_BEYOND or pct == 50
    assert run.percentile([3, 1, 2, 4], 50) == 2
    assert run.percentile([3, 1, 2, 4], 75) == 3


def test_coverage_names_layers_without_work():
    verify = workloads.build("verify-q", 0)
    totals = {"linalg.solve_calls": 3, "halfspace.mobius.rb": 0}
    assert run.coverage("verify-q", totals, verify, 6) == [
        "halfspace.mobius.rb"]
    act = workloads.build("act-cold", 0)
    assert run.coverage("act-cold", {"groups.iso_calls": 1}, act, 2) == [
        "boundary input point"]
    assert run.coverage("act-cold", {"groups.iso_calls": 1}, act, 4) == []
