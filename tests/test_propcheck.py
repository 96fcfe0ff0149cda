import inspect
import json
import math
import zlib

import numpy as np
import pytest

from jcone import propcheck
from jcone.errors import JConeError, UnknownSuite, threshold
from jcone.jcalc import GeneratorStack
from jcone.jstruct import Signature
from jcone.matcore import fnorm
from jcone.order import OrderVerdict, j_leq
from jcone.propcheck import (REGISTRY, REGISTRY_BY_ID, SUITES, Context,
                             PropertyReport, PropertySpec, TrialOutcome,
                             _comparable_pair, _leq, _payload, _trial_rng,
                             _within, run_property, run_suite)

SIG = Signature(1, 1)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRegistry:
    def test_ids_unique(self):
        ids = [spec.property_id for spec in REGISTRY]
        assert len(ids) == len(set(ids))

    def test_every_suite_nonempty(self):
        for suite in SUITES:
            assert any(suite in spec.suites for spec in REGISTRY)

    def test_every_property_takes_ctx_and_rng(self):
        for spec in REGISTRY:
            params = list(inspect.signature(spec.func).parameters)
            assert params == ["ctx", "rng"], spec.property_id


class TestRunner:
    def test_zero_trials_pass(self):
        reports = run_suite("powers", SIG, "R", trials=0, seed=0)
        assert reports and all(r.failures == 0 for r in reports)
        assert all(r.counterexample is None for r in reports)

    @pytest.mark.parametrize("trials", [-1, -2])
    def test_negative_trials_are_named(self, trials):
        # A negative count would otherwise report a run of no trial with a
        # worst margin of inf.
        with pytest.raises(ValueError, match=f"need trials >= 0, got {trials}"):
            run_suite("powers", SIG, "R", trials=trials, seed=0)

    def test_determinism(self):
        a = run_suite("order", SIG, "C", trials=5, seed=42)
        b = run_suite("order", SIG, "C", trials=5, seed=42)
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]

    def test_means_suite_passes(self):
        reports = run_suite("means", SIG, "C", trials=20, seed=42)
        assert all(r.failures == 0 for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nonsense", SIG, "R", trials=1, seed=0)

    def test_failing_property_runs_once_per_trial(self):
        # One call runs the block of 7 trials; each trial draws once, from
        # its own generator, and fails.
        calls = []

        def failing(ctx, rng):
            draws = rng.uniform()
            calls.append(draws)
            return TrialOutcome(np.zeros(len(draws), dtype=bool), np.full(len(draws), -1.0))

        spec = PropertySpec("test.failing", ("powers",), failing)
        report = run_property(spec, Context(SIG, "R", 1e-8), trials=7, seed=2)
        own = [_trial_rng(2, "test.failing", trial).uniform() for trial in range(7)]
        assert np.concatenate(calls).tolist() == own
        assert report.failures == 7 and report.counterexample["trial"] == 6

    @pytest.mark.parametrize("property_id, tol", [
        ("order.power_monotone_unit", -1.0), ("means.idempotence", -1.0),
        ("ineq.furuta", 1e-15)])
    def test_counterexample_reruns_from_its_trial(self, property_id, tol):
        # These properties scale a perturbation of their draw; the reported
        # inputs and margin are those of the reported trial itself.
        spec = REGISTRY_BY_ID[property_id]
        ctx = Context(Signature(2, 1), "C", tol)
        report = run_property(spec, ctx, trials=5, seed=1)
        ce = report.counterexample
        assert report.failures > 0 and ce is not None
        own = spec.func(ctx, _trial_rng(1, property_id, ce["trial"]))
        assert not own.ok
        assert ce["margin"] == own.margin
        assert ce["inputs"] == {name: _payload(m) for name, m in own.witness.items()}

    @pytest.mark.parametrize("ok", [True, False])
    def test_property_drawing_nothing_runs_once(self, ok):
        calls = []

        def constant(ctx, rng):
            calls.append(len(rng))
            return TrialOutcome(ok, 0.5 if ok else -0.5)

        spec = PropertySpec("test.constant", ("powers",), constant)
        report = run_property(spec, Context(SIG, "R", 1e-8), trials=5, seed=0)
        # Called once, on the block of all five trials, and its one outcome
        # stands for each of them.
        assert calls == [5]
        assert report.trials == 5
        assert report.worst_margin == (0.5 if ok else -0.5)
        if ok:
            assert report.failures == 0 and report.counterexample is None
        else:
            assert report.failures == 5 and report.counterexample["trial"] == 4

    def test_json_lines_parse(self):
        reports = run_suite("geometry", SIG, "R", trials=3, seed=7)
        for r in reports:
            payload = json.loads(r.to_json_line())
            assert payload["property_id"] == r.property_id
            assert payload["failures"] == 0
            assert isinstance(payload["worst_margin"], float)


def _default_rng_trial(seed, property_id, trial):
    """A trial's generator as numpy's default_rng builds it from the tuple."""
    return np.random.default_rng((int(seed), zlib.crc32(property_id.encode()), trial))


class TestTrialStreams:
    """_trial_rng builds default_rng((seed, crc32(id), trial))'s generator
    from numpy's SeedSequence pool: the same state, so every counterexample
    still reruns from (seed, id, trial), and a NumPy release that changes
    SeedSequence fails here."""

    # crc32 below 2**31, and at or above it.
    IDS = ("means.scaling", "means.symmetry")
    assert [zlib.crc32(i.encode()) >= 2 ** 31 for i in IDS] == [False, True]

    @pytest.mark.parametrize("property_id", IDS)
    @pytest.mark.parametrize("trial", [0, 1, 199, 7280, 2 ** 32])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
    def test_state_is_default_rngs(self, seed, trial, property_id):
        ours = _trial_rng(seed, property_id, trial)
        theirs = _default_rng_trial(seed, property_id, trial)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.standard_normal(4).tobytes() == theirs.standard_normal(4).tobytes()

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1)])
    def test_negative_seed_or_trial_raises_value_error(self, seed, trial):
        with pytest.raises(ValueError):
            _default_rng_trial(seed, "means.symmetry", trial)
        with pytest.raises(ValueError):
            _trial_rng(seed, "means.symmetry", trial)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_reports_are_default_rngs(self, monkeypatch, field, seed):
        ctx = Context(Signature(2, 1), field, 1e-8)
        ours = [run_property(spec, ctx, 3, seed).to_json_line() for spec in REGISTRY]
        monkeypatch.setattr(propcheck, "_trial_rng", _default_rng_trial)
        theirs = [run_property(spec, ctx, 3, seed).to_json_line() for spec in REGISTRY]
        assert ours == theirs


def _nan_margin(monkeypatch, name):
    """Make the named propcheck helper return NaN where it returned a value,
    or, for j_leq, a verdict whose margins are NaN."""
    import jcone.propcheck
    original = getattr(jcone.propcheck, name)
    if name == "j_leq":
        def patched(*args, **kwargs):
            v = original(*args, **kwargs)
            return OrderVerdict(v.holds, v.margin * np.nan)
    else:
        def patched(*args):
            return original(*args) * np.nan
    monkeypatch.setattr(jcone.propcheck, name, patched)


@pytest.mark.parametrize("property_id, helper", [
    ("powers.kj_congruence", "_rel_err"),
    ("powers.commuting_factorization", "_rel_err"),
    ("order.power_monotone_unit", "j_leq"),
    ("geometry.pullback_geodesic", "_rel_err"),
    ("means.scaling", "_rel_err"),
    ("means.pullback_oracle", "_rel_err"),
    ("quat.functional_calculus", "_rel_err"),
    ("quat.image_structure", "psi_structural_residual"),
])
def test_nan_margin_fails_every_trial(monkeypatch, property_id, helper):
    # A NaN margin shows nothing: each trial fails, and the report, whose
    # margins are then not finite, is written with null margins.
    _nan_margin(monkeypatch, helper)
    report = run_property(REGISTRY_BY_ID[property_id], Context(Signature(2, 1), "R", 1e-8),
                          trials=4, seed=0)
    assert report.failures == 4
    payload = json.loads(report.to_json_line())
    assert payload["worst_margin"] is None
    assert payload["counterexample"]["trial"] == 3
    assert payload["counterexample"]["margin"] is None


class TestPassRules:
    """_within is the pass rule of an error and _leq that of an order; each
    equals, bit for bit, the expression it stands for written out in full."""

    def test_a_nan_error_fails_with_a_nan_margin(self):
        out = _within(1e-8, np.float64(np.nan), {"x": 1})
        assert not out.ok and math.isnan(out.margin) and out.witness == {"x": 1}

    def test_an_error_at_the_tolerance_passes_with_margin_plus_zero(self):
        out = _within(1e-8, 1e-8)
        assert out.ok and out.margin == 0.0 and math.copysign(1.0, out.margin) == 1.0

    def test_a_grid_folds_as_the_minimum_of_the_margins(self):
        # Rows are grid points, columns trials: ties, a member at the
        # tolerance and a NaN member.
        tol = 1e-8
        err = np.random.default_rng(3).uniform(0.0, 2e-8, (4, 5))
        err[1] = err[0]
        err[2, 1] = tol
        err[3, 4] = np.nan
        old = np.minimum.reduce(tol - err)
        out = _within(tol, np.maximum.reduce(err))
        assert _bits(out.margin) == _bits(old)
        assert out.ok.tolist() == (old >= 0.0).tolist()
        assert out.ok.tolist().count(False) >= 2   # both verdicts are met

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("nan_norm", [False, True])
    def test_leq_is_the_old_three_lines(self, monkeypatch, field, raw, nan_norm):
        import jcone.propcheck
        if nan_norm:   # the first norm each rule takes is NaN
            calls = []

            def first_nan(X):
                calls.append(X)
                return fnorm(X) * (np.nan if len(calls) % 2 else 1.0)

            monkeypatch.setattr(jcone.propcheck, "fnorm", first_nan)
        ctx = Context(Signature(2, 1), field, 1e-8)
        rngs = GeneratorStack([np.random.default_rng(s) for s in range(3)])
        X, Y = _comparable_pair(ctx, rngs)
        if raw:
            X, Y = X.matrix, Y.matrix
        for lhs, rhs in ((X, Y), (Y, X)):
            norm = jcone.propcheck.fnorm
            v = j_leq(lhs, rhs, ctx.sig, tol=ctx.tol)
            ml, mr = (lhs, rhs) if raw else (lhs.matrix, rhs.matrix)
            scale = threshold(1.0, norm(ml), norm(mr))
            out = _leq(ctx, lhs, rhs, {"X": X})
            assert out.ok.tolist() == v.holds.tolist()
            assert _bits(out.margin) == _bits(v.margin + ctx.tol * scale)
            assert out.witness["X"] is X


class TestMutationSanity:
    def test_broken_property_reports_counterexample(self):
        # A deliberately wrong predicate must fail and carry a witness.
        # Written to broadcast: one draw, margin and witness value per trial
        # of the block, or a lone one on a trial's own generator.
        def broken(ctx, rng):
            x = rng.standard_normal()
            margin = -np.abs(x)
            return TrialOutcome(margin >= 0.0, margin, {"x": {"value": x}})

        spec = PropertySpec("test.broken", ("powers",), broken)
        ctx = Context(SIG, "R", 1e-8)
        report = run_property(spec, ctx, trials=5, seed=3)
        assert report.failures == 5
        assert report.counterexample is not None
        assert report.worst_margin < 0.0
        # The witness is the last failing trial's own outcome.
        own = broken(ctx, _trial_rng(3, "test.broken", 4))
        assert report.counterexample == {"trial": 4, "margin": own.margin,
                                         "inputs": own.witness}
        assert json.loads(report.to_json_line())["counterexample"]["inputs"] == own.witness

    def test_counterexample_inputs_are_matrix_payloads(self):
        # No tolerance is met at -1: the witness matrices are serialized
        # into the report as matrix file payloads.
        spec = REGISTRY_BY_ID["means.symmetry"]
        report = run_property(spec, Context(SIG, "C", -1.0), trials=1, seed=0)
        inputs = report.counterexample["inputs"]
        assert sorted(inputs) == ["A", "B"]
        assert inputs["A"]["field"] == "C" and inputs["A"]["rows"] == 2
        assert json.loads(report.to_json_line())["counterexample"]["inputs"] == inputs

    def test_passing_trials_serialize_nothing(self, monkeypatch):
        import jcone.propcheck

        def forbidden(X):
            raise AssertionError("witness serialized for a passing trial")

        monkeypatch.setattr(jcone.propcheck, "matrix_to_payload", forbidden)
        reports = run_suite("means", SIG, "H", trials=2, seed=1)
        assert all(r.failures == 0 for r in reports)


class TestBlocks:
    """A property runs a block of trials in one call; each trial's ok and
    margin are those of the property on its own generator, bit for bit."""

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_block_matches_each_trial_alone(self, field, seed):
        trials = 4
        for tol in (1e-8, -1.0):   # every relative-error oracle fails at -1
            ctx = Context(Signature(2, 1), field, tol)
            for spec in REGISTRY:
                blocks = []

                def recorded(ctx, rng, _func=spec.func):
                    blocks.append(_func(ctx, rng))
                    return blocks[-1]

                try:
                    alone = [spec.func(ctx, _trial_rng(seed, spec.property_id, trial))
                             for trial in range(trials)]
                except JConeError as exc:   # a premise test of the property rejects tol
                    with pytest.raises(type(exc)):
                        run_property(spec, ctx, trials, seed)
                    continue
                report = run_property(PropertySpec(spec.property_id, spec.suites, recorded),
                                      ctx, trials, seed)
                assert len(blocks) == 1, spec.property_id
                ok = np.broadcast_to(blocks[0].ok, (trials,))
                margin = np.broadcast_to(blocks[0].margin, (trials,))
                assert ok.tolist() == [bool(o.ok) for o in alone], spec.property_id
                assert _bits(margin) == _bits([o.margin for o in alone]), spec.property_id
                failing = [trial for trial, o in enumerate(alone) if not o.ok]
                assert report.failures == len(failing), spec.property_id
                if not failing:
                    assert report.counterexample is None
                    continue
                own = alone[failing[-1]]
                assert report.counterexample == {
                    "trial": failing[-1], "margin": own.margin,
                    "inputs": {name: _payload(m) for name, m in (own.witness or {}).items()}
                }, spec.property_id

    def test_a_block_is_one_call_at_n3(self):
        calls = []
        spec = REGISTRY_BY_ID["means.symmetry"]

        def counted(ctx, rng):
            calls.append(len(rng))
            return spec.func(ctx, rng)

        ctx = Context(Signature(2, 1), "C", 1e-8)
        report = run_property(PropertySpec(spec.property_id, spec.suites, counted), ctx, 5, 0)
        assert calls == [5] and report.failures == 0

    def test_block_size_bounds_the_entries_per_array(self, monkeypatch):
        import jcone.propcheck
        monkeypatch.setattr(jcone.propcheck, "_BLOCK_ENTRIES", 2 * 9)
        calls = []
        spec = REGISTRY_BY_ID["means.symmetry"]

        def counted(ctx, rng):
            calls.append(len(rng))
            return spec.func(ctx, rng)

        ctx = Context(Signature(2, 1), "R", 1e-8)
        blocked = run_property(PropertySpec(spec.property_id, spec.suites, counted), ctx, 5, 3)
        assert calls == [2, 2, 1]
        monkeypatch.undo()
        assert blocked == run_property(spec, ctx, 5, 3)

    def test_property_drawing_nothing_counts_for_every_block(self, monkeypatch):
        # Three blocks of a failing constant property: each block's one
        # outcome stands for its trials, and the last trial is reported.
        import jcone.propcheck
        monkeypatch.setattr(jcone.propcheck, "_BLOCK_ENTRIES", 2 * 4)
        calls = []

        def constant(ctx, rng):
            calls.append(len(rng))
            return TrialOutcome(False, -0.5)

        spec = PropertySpec("test.constant", ("powers",), constant)
        report = run_property(spec, Context(SIG, "R", 1e-8), trials=5, seed=0)
        assert calls == [2, 2, 1]
        assert report.failures == report.trials == 5 and report.worst_margin == -0.5
        assert report.counterexample == {"trial": 4, "margin": -0.5, "inputs": {}}

    def test_generator_stack_draws_from_each_generator(self):
        rngs = GeneratorStack([np.random.default_rng(s) for s in range(3)])
        normal, uniform = rngs.standard_normal((2, 2)), rngs.uniform(0.1, 0.9, size=3)
        for s in range(3):
            alone = np.random.default_rng(s)
            assert np.array_equal(normal[s], alone.standard_normal((2, 2)))
            assert np.array_equal(uniform[s], alone.uniform(0.1, 0.9, size=3))
