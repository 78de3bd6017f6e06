"""Tests of the benchmark itself: `python -m pytest bench/test_bench.py`."""

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402
from torusbv import bvalgebra, cli, cocycle, liealg, laurent  # noqa: E402
from torusbv.parsing import format_polyvector  # noqa: E402


def _cheap_ops(name, count):
    ops = workloads.build(name, 3).ops
    if name == "rep-theory":
        ops = [op for op in ops if op.kind == "density"]
    return ops[:count]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_cheap_op_passes_its_reference(name):
    result = worker.PassResult()
    worker.run_pass(_cheap_ops(name, 12), result)
    assert (result.attempted, result.failed) == (12, 0), result.failures


def _plant_wrong_reference(op):
    if op.kind.startswith("bracket_r"):
        rank = op.args[0].rank
        op.check = workloads._terms_equal({((9,) * rank, (1,)): Fraction(1)}, rank)
    elif isinstance(op.check, workloads._CliReference):
        op.check.expected = {((9,) * op.check.rank, ()): Fraction(1)}
    elif op.kind == "density":
        spec = op.args[0]
        op.check = workloads._check_density(spec.alpha - 1, spec.beta)
    else:
        op.check = lambda out: not workloads._is_zero(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_reference_is_counted(name):
    ops = _cheap_ops(name, 6)
    _plant_wrong_reference(ops[2])
    result = worker.PassResult()
    worker.run_pass(ops, result)
    assert (result.attempted, result.failed) == (6, 1)
    assert result.failures[0].startswith(f"{ops[2].kind}: {ops[2].label}")


def test_raising_operation_is_counted():
    def boom():
        raise ZeroDivisionError("planted")

    ops = _cheap_ops("witt-sweep", 3)
    ops.append(workloads.Op("boom", boom, (), lambda out: True, "planted"))
    result = worker.PassResult()
    worker.run_pass(ops, result)
    assert (result.attempted, result.failed) == (4, 1)
    assert "raised ZeroDivisionError" in result.failures[0]


def test_failed_operation_makes_the_command_fail(monkeypatch, capsys):
    fake = {"setup_s": 0.2, "setup_cpu_s": 0.25, "setup_wall_s": 0.3, "strata": {"bracket_r1": 5}, "attempted": 10, "failed": 1,
            "failures": ["bracket_r1: x: differs from the reference"], "passes": 2,
            "pass_ops": 5, "chunk": 1, "wall_s": 1.0, "raw_pass_ops_per_s": 9.0,
            "reference_ms": 0.3, "reference_nominal_ms": 0.25, "reference_runs": 6, "ops_per_s": 10.0,
            "op_p50_ms": 1.0, "op_tail_ms": 2.0, "tail_pct": 50.0, "tail_beyond": 2,
            "peak_rss_mb": 20.0}
    monkeypatch.setattr(run, "spawn", lambda *args: fake)
    code = run.main(["--workload", "witt-sweep", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 10, 1)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_scaled_pass_times_the_reference_around_every_chunk(monkeypatch):
    refs = iter([0.5e-3, 0.25e-3, 1e-3])
    monkeypatch.setattr(reference, "time_loop", lambda: next(refs))
    ops = _cheap_ops("witt-sweep", 5)
    result = worker.PassResult()
    scaled, raw, ref = worker.run_scaled_pass(ops, 3, result)
    assert (result.attempted, result.failed) == (5, 0)
    assert list(ref) == [0.5e-3, 0.25e-3, 1e-3]
    # chunk [0, 3) between 0.5 and 0.25 ms, chunk [3, 5) between 0.25 and 1 ms
    factors = [0.25 / 0.375] * 3 + [0.25 / 0.625] * 2
    assert list(scaled) == pytest.approx([t * f for t, f in zip(raw, factors)])


def test_reference_loop_is_fixed_stdlib_work():
    assert reference.loop() == reference.loop()
    assert isinstance(reference.loop(), Fraction)


def test_speed_sampler_times_the_loop_and_keeps_its_cost_apart():
    sampler = reference.SpeedSampler(0.002)
    sampler.start()
    t0 = time.process_time()
    while time.process_time() - t0 < 0.05:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < time.process_time() - t0
    assert sampler.scale() == pytest.approx(
        reference.REFERENCE_MS * 1e-3 / statistics.median(sampler.samples))


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, s) for s in (7, 7, 8))
        assert [op.label for op in a.ops] == [op.label for op in b.ops]
        assert [op.label for op in a.ops] != [op.label for op in c.ops]
        assert a.strata == c.strata


def test_canonical_text_matches_the_library():
    rng = random.Random(0)
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            terms = workloads.random_terms(rng, rank, workloads.CLI_TERMS)
            text = workloads.format_canonical(terms)
            assert text == format_polyvector(bvalgebra.PolyVector(rank, terms))
            assert workloads.parse_canonical(text, rank) == terms
            assert len({len(w) for (_, w) in terms}) >= 2


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        fn()
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer


def test_span_counts_of_one_rank1_monomial_bracket():
    x = bvalgebra.PolyVector.xi(1, (2,), 1)
    y = bvalgebra.PolyVector.xi(1, (-1,), 1)
    result = []
    tracer = _traced(lambda: result.append(bvalgebra.gerstenhaber_bracket(x, y)))
    m = tracer.metrics()
    assert result[0].terms == {((1,), (1,)): Fraction(-3)}
    assert m["bvalgebra.gerstenhaber_bracket.calls"] == 1
    assert m["bvalgebra.wedge.calls"] == 3
    assert m["bvalgebra.bv_delta.calls"] == 3
    assert m["bvalgebra.wedge.term_pairs"] == 3
    # xi_2 ^ xi_-1 = 0; the other two wedges pair a function with a field
    assert m["bvalgebra.wedge.zero_pair_frac"] == pytest.approx(1 / 3)
    # children: 0 + 1 + 1 terms from bv_delta and 0 + 1 + 1 from wedge
    assert m["bvalgebra.gerstenhaber_bracket.inner_terms_per_out_term"] == 4
    assert m["bvalgebra.store.init_calls"] == 1
    assert m["laurent.calls"] == 0
    assert m["bvalgebra.gerstenhaber_bracket.self_s"] > 0


def test_every_binding_is_patched_and_restored():
    original = bvalgebra.gerstenhaber_bracket
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bvalgebra.gerstenhaber_bracket
        assert wrapped is not original
        for module in (cocycle, liealg, cli, sys.modules["torusbv"]):
            assert module.gerstenhaber_bracket is wrapped
        assert laurent.LaurentPoly.__rmul__ is laurent.LaurentPoly.__mul__
        assert laurent.LaurentPoly.__mul__.__wrapped__ is not None
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert bvalgebra.gerstenhaber_bracket is original
    assert cocycle.gerstenhaber_bracket is original
    assert not hasattr(laurent.LaurentPoly.__mul__, "__wrapped__")


def test_removed_name_is_reported_missing(monkeypatch):
    gone = ("torusbv.bvalgebra", "removed_kernel", "bvalgebra.removed_kernel",
            "bvalgebra.removed_kernel.calls", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = _traced(lambda: bvalgebra.bv_delta(bvalgebra.PolyVector.xi(1, (1,), 1)))
    assert tracer.missing == ["torusbv.bvalgebra.removed_kernel"]
    assert tracer.metrics()["bvalgebra.bv_delta.calls"] == 1


def test_traced_counts_repeat_exactly():
    ops = _cheap_ops("polyvector-cli", 10)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            worker.run_pass(ops, worker.PassResult(), tracer=tracer)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 10
    assert counts[0]["cli.main.out_bytes"] > 0


def test_per_layer_units_cover_the_traced_metrics():
    tracer = _traced(lambda: None)
    traced = set(tracer.metrics()) | {"fractions.self_s", "fractions.self_frac",
                                      "trace.overhead_frac"}
    assert traced == set(run.per_layer_units())


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 2701)]
    assert worker.tail(lat) == (99.0, 2673.0, 27)
    assert worker.tail(lat[:500]) == (90.0, 450.0, 50)
    assert worker.tail(lat[:5]) == (50.0, 3.0, 2)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witt-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
