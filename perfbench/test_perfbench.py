"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kxstit import checker, gen  # noqa: E402

TINY = {"suite": {"models": 3},
        "transform": {"models": 2, "fixture": False},
        "query": {"random_queries": 20, "reports": 5}}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny_units(workload, seed, tmp_path):
    return workloads.SETUPS[workload](seed, str(tmp_path), **TINY[workload])


def signature(units):
    """What the units feed the timed code, for comparing seeds."""
    out = []
    for u in units:
        arg = u.prepare()
        out.append(arg if isinstance(arg, list) else arg.dumps())
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_and_reports_every_end_to_end_metric(workload, tmp_path):
    units = tiny_units(workload, 0, tmp_path)
    res = run.measure(units, 0.0)
    assert (res.attempted, res.failed, res.passes) == (len(units), 0, 1)
    metrics = run.end_to_end([0.01], [run.REFERENCE_S], res)
    assert {k: u for k, (_, u, _) in metrics.items()} == END_TO_END
    assert all(value > 0 for value, _, _ in metrics.values())
    printed = [line.split()[0] for line in run.ungated(workload, res)]
    assert printed[:3] == ["verdict_p50_ms", "verdict_tail_ms", "pass_s"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_tiny_workload_reports_every_per_layer_metric(workload, tmp_path):
    original = checker.extension
    units = tiny_units(workload, 0, tmp_path)
    spans = tracer.Tracer()
    res = run.measure(units, 0.0, spans)
    assert (res.attempted, res.failed) == (2 * len(units), 0)
    assert checker.extension is original      # wrappers are removed after each unit
    metrics = run.per_layer(spans, res)
    assert {k: u for k, (_, u, _) in metrics.items()} == PER_LAYER
    assert metrics["cli.main.calls"][0] == (len(units) if workload == "query" else 0)
    assert metrics["trace.spans"][0] > 0
    path = tmp_path / "spans.tsv"
    written = spans.write_spans(str(path))
    assert written == len(path.read_text().splitlines()) - 1 == len(spans.span_id)


def test_recursive_calls_count_once():
    from kxstit import formula as F
    spans = tracer.Tracer()
    spans.install("unit")
    try:
        F.expand_macros(F.parse("Kh(a, ExPost(a, X p))"))
    finally:
        spans.uninstall()
    # parse expands once inside its own span; the outer call is the second
    assert spans.stats["formula.expand_macros"].calls == 2
    assert spans.stats["formula.parse"].calls == 1


@pytest.mark.parametrize("workload", ["suite", "query"])
def test_flipped_expected_answer_counts_as_failed(workload, tmp_path):
    units = tiny_units(workload, 0, tmp_path)
    unit = units[0]
    unit.expected = unit.expected + 1 if workload == "suite" else not unit.expected
    res = run.measure(units, 0.0)
    assert res.failed == 1 and res.failed / res.attempted > 0
    assert res.errors[0].startswith(unit.key)


def test_fixture_answers_are_checked(tmp_path):
    (fixture,) = workloads.setup_transform(0, str(tmp_path), models=0)
    result = fixture.run(fixture.prepare())
    assert fixture.verify(result, fixture.expected) == (3402, None)
    wrong_count = dict(fixture.expected, compared=3401)
    assert fixture.verify(result, wrong_count)[1] is not None
    wrong_set = dict(fixture.expected, failed=dict(fixture.expected["failed"], IA=["a;1#0"]))
    assert "failed conditions" in fixture.verify(result, wrong_set)[1]
    # a recorded witness that is not a violation is caught from the relations
    eq = next(c for c in result["frame"].checks if c.condition == "EQ")
    eq.witness = [eq.witness[0], eq.witness[0], eq.witness[2]]
    assert "not a transitivity failure" in fixture.verify(result, fixture.expected)[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_changes_inputs_but_not_correctness(workload, tmp_path):
    base = signature(tiny_units(workload, 0, tmp_path))
    units = tiny_units(workload, 7, tmp_path)
    assert signature(units) != base
    assert signature(tiny_units(workload, 7, tmp_path)) == signature(units)
    assert run.measure(units, 0.0).failed == 0


def test_every_seed_asks_the_pinned_know_how_questions(tmp_path):
    pinned = {(world, f"Kh({agent}, ~{atom})") for world, agent, atom in workloads.KNOW_HOW}
    for seed in (0, 7):
        asked = {(argv[3], argv[5]) for argv in map(lambda u: u.prepare(),
                                                      tiny_units("query", seed, tmp_path))}
        assert pinned <= asked


def test_default_suite_seed_has_the_tier1_instance_totals():
    # criteria 2 and 3 of the acceptance suite check 55,995 + 6,394 instances
    grid = gen.model_grid(200, base_seed=1000)
    assert sum(workloads.suite_instances(len(m.agents)) for m in grid) == 55_995 + 6_394


def test_command_prints_the_result_last(tmp_path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
