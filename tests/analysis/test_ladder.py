"""The degree ladder over a once-per-task prepared analysis.

``prepare`` does the degree-independent work (arguments, CFG, lint,
Gamma, regime) once; ``escalate`` climbs the degrees over it.  These
tests pin what that saves — one octagon fixpoint per task, no PLCS
solve on a rung the ladder discards — and that it changes no output:
the ladder's result equals a plain ``analyze`` at the winning degree.
"""

import pytest

import repro.analysis.bounds as bounds
import repro.check.runner as runner
import repro.invariants.generator as generator
from repro.analysis.bounds import analyze, escalate, prepare
from repro.api import AnalysisOptions, Analyzer
from repro.batch import AnalysisRequest
from repro.batch.engine import execute_request
from repro.fuzz.generator import GenConfig, generate
from repro.programs import all_benchmarks

#: A fuzz program with no PUCS certificate at degrees 1..4 whose regime
#: admits a lower bound: the ladder climbs all the way to degree 4.
CLIMBING_SEED = 1

RDWALK = """
var x, n;
while x <= n do
  if prob(0.75) then x := x + 1 else x := x - 1 fi;
  tick(1)
od
"""

DIVERGENT = "var x;\nwhile x <= 0 do\n  tick(1)\nod\n"


@pytest.fixture
def fixpoints(monkeypatch):
    """Records every octagon fixpoint the lint or Gamma generation runs."""
    calls = []
    original = runner.analyze_cfg_octagon

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "analyze_cfg_octagon", counting)
    monkeypatch.setattr(generator, "analyze_cfg_octagon", counting)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """Records ``(kind, degree)`` of every PUCS/PLCS synthesis call."""
    calls = []
    original = bounds.synthesize

    def recording(cfg, invariants, init, kind, degree, **kwargs):
        calls.append((kind, degree))
        return original(cfg, invariants, init, kind=kind, degree=degree, **kwargs)

    monkeypatch.setattr(bounds, "synthesize", recording)
    return calls


def _climbing():
    generated = generate(GenConfig(), CLIMBING_SEED)
    return generated.program, dict(generated.init)


def _assert_same(laddered, direct):
    """Bounds bitwise, warnings, diagnostics and tails equal."""
    for side in ("upper", "lower"):
        a, b = getattr(laddered, side), getattr(direct, side)
        assert (a is None) == (b is None), side
        if a is not None:
            assert a.degree == b.degree
            assert a.value == b.value
            assert sorted(a.bound.terms()) == sorted(b.bound.terms())
    assert laddered.mode.name == direct.mode.name
    assert laddered.warnings == direct.warnings
    assert laddered.lower_skipped == direct.lower_skipped
    assert laddered.diagnostics == direct.diagnostics
    assert (laddered.tail is None) == (direct.tail is None)
    if laddered.tail is not None:
        assert laddered.tail.to_dict() == direct.tail.to_dict()


class TestArgumentValidation:
    def test_bad_mode_raises_before_any_fixpoint(self, fixpoints):
        with pytest.raises(ValueError, match="mode"):
            analyze(RDWALK, init={"x": 0, "n": 10}, mode="bogus", invariant_domain="octagon")
        assert fixpoints == []

    def test_bad_mode_beats_strict_rejection(self, fixpoints):
        # The lint rejects DIVERGENT (REP008), but the bad argument is
        # reported first.
        with pytest.raises(ValueError, match="mode"):
            analyze(
                DIVERGENT,
                init={"x": 0},
                mode="bogus",
                check="strict",
                invariant_domain="octagon",
            )
        assert fixpoints == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "bogus"}, {"check": "loud"}, {"invariant_domain": "polyhedra"}],
    )
    def test_arguments_checked_before_parsing(self, kwargs):
        with pytest.raises(ValueError):
            prepare("var x := ;", init={}, **kwargs)


class TestLadder:
    def test_one_octagon_fixpoint_per_task(self, fixpoints, solves):
        program, init = _climbing()
        result = Analyzer().synthesize(
            program,
            degree="auto",
            max_degree=4,
            init=init,
            check="strict",
            tails=True,
            invariant_domain="octagon",
        )
        assert len(fixpoints) == 1
        assert result.upper is None
        # PUCS fails on every rung; PLCS only runs on the final one.
        assert solves == [("upper", 1), ("upper", 2), ("upper", 3), ("upper", 4), ("lower", 4)]
        assert result.lower is not None and result.lower.degree == 4
        assert result.diagnostics == []

    def test_engine_runs_one_fixpoint_per_task(self, fixpoints):
        generated = generate(GenConfig(), CLIMBING_SEED)
        report = execute_request(
            AnalysisRequest(
                source=generated.source,
                init=dict(generated.init),
                degree="auto",
                max_degree=4,
                check="strict",
                invariant_domain="octagon",
            )
        )
        assert report.status == "ok"
        assert report.degrees_tried == [1, 2, 3, 4]
        assert report.degree == 4
        assert len(fixpoints) == 1

    def test_plcs_skipped_only_on_non_final_rungs(self, solves):
        program, init = _climbing()
        task = prepare(program, init, invariant_domain="octagon")
        discarded = task.step(1, final=False)
        assert solves == [("upper", 1)]
        assert discarded.upper is None and discarded.lower_skipped is None
        final = task.step(1)
        assert solves[1:] == [("upper", 1), ("lower", 1)]
        assert final.upper is None

    def test_empty_ladder_is_an_error(self):
        task = prepare(RDWALK, {"x": 0, "n": 10})
        with pytest.raises(ValueError):
            escalate(task, [], AnalysisOptions())


class TestLadderEqualsAnalyze:
    """``escalate`` equals ``analyze`` at the degree the ladder kept."""

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda bench: bench.name)
    def test_registry(self, bench):
        options = AnalysisOptions(degree="auto", max_degree=3, tails=True, check="warn")
        tried = []
        laddered = escalate(
            bench.prepare(options),
            options.degree_plan(),
            options,
            on_rung=tried.append,
        )
        init = dict(bench.init)
        direct = analyze(
            bench.program,
            init=init,
            invariants=bench.invariant_map(init),
            degree=tried[-1],
            mode=bench.mode,
            tails=True,
            check="warn",
        )
        _assert_same(laddered, direct)

    @pytest.mark.parametrize("seed", range(50))
    def test_fuzz_seed(self, seed):
        config = GenConfig()
        generated = generate(config, seed)
        settings = dict(
            init=dict(generated.init),
            check="warn",
            tails=True,
            tail_horizon=config.sim_max_steps,
            invariant_domain="octagon",
        )
        options = AnalysisOptions(degree="auto", max_degree=config.max_degree, **settings)
        tried = []
        task = prepare(
            generated.program,
            init=dict(generated.init),
            check="warn",
            invariant_domain="octagon",
        )
        laddered = escalate(task, options.degree_plan(), options, on_rung=tried.append)
        direct = analyze(generated.program, degree=tried[-1], **settings)
        _assert_same(laddered, direct)
