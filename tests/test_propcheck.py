import json

import numpy as np
import pytest

from jcone.errors import UnknownSuite
from jcone.jstruct import Signature
from jcone.propcheck import (REGISTRY, REGISTRY_BY_ID, SUITES, Context,
                             PropertyReport, PropertySpec, TrialOutcome,
                             run_property, run_suite)

SIG = Signature(1, 1)


class TestRegistry:
    def test_ids_unique(self):
        ids = [spec.property_id for spec in REGISTRY]
        assert len(ids) == len(set(ids))

    def test_every_suite_nonempty(self):
        for suite in SUITES:
            assert any(suite in spec.suites for spec in REGISTRY)


class TestRunner:
    def test_zero_trials_pass(self):
        reports = run_suite("powers", SIG, "R", trials=0, seed=0)
        assert reports and all(r.failures == 0 for r in reports)
        assert all(r.counterexample is None for r in reports)

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

    def test_json_lines_parse(self):
        reports = run_suite("geometry", SIG, "R", trials=3, seed=7)
        for r in reports:
            payload = json.loads(r.to_json_line())
            assert payload["property_id"] == r.property_id
            assert payload["failures"] == 0
            assert isinstance(payload["worst_margin"], float)


class TestMutationSanity:
    def test_broken_property_reports_counterexample(self):
        # A deliberately wrong predicate must fail and carry a shrunk witness.
        def broken(ctx, rng, eps):
            x = float(rng.standard_normal())
            margin = -abs(x) * eps
            return TrialOutcome(margin >= 0.0, margin,
                                {"x": {"value": x, "eps": eps}})

        spec = PropertySpec("test.broken", ("powers",), broken)
        report = run_property(spec, Context(SIG, "R", 1e-8), trials=5, seed=3)
        assert report.failures == 5
        assert report.counterexample is not None
        assert report.worst_margin < 0.0
        # Shrinking halves eps down to the floor while the failure persists.
        assert report.counterexample["inputs"]["x"]["eps"] < 1.0

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
