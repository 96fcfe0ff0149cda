import numpy as np
import pytest

from jcone.cli import main
from jcone.errors import (NotJHermitian, NotPositive, SignatureMismatch,
                          StepTooSmall)
from jcone.geometry import (curve_ode_residual, geodesic, geodesic_distance,
                            geodesic_ode_residual, metric_omega)
from jcone.jcalc import (log_J, pow_J, random_invertible, random_jhermitian,
                         random_pj, random_pj_bounded)
from jcone.jstruct import (JPositive, Signature, in_pj, is_j_positive, phi_J,
                           sharp)
from jcone.means import weighted_mean
from jcone.matcore import allclose, fnorm, mat_inverse, mat_pow_pd, mat_sqrt_pd
from jcone.propcheck import REGISTRY, Context, run_property

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")


def classical_geodesic(P, Q, t):
    rt = mat_sqrt_pd(P)
    rti = mat_inverse(rt)
    return rt @ mat_pow_pd(rti @ Q @ rti, t) @ rt


class TestMetric:
    def test_omega_at_j(self):
        P = is_j_positive(SIG.matrix(), SIG)
        assert metric_omega(P, SIG.matrix(), SIG.matrix()) == pytest.approx(2.0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(0)
        for field in FIELDS:
            sig = Signature(2, 1)
            P = random_pj_bounded(sig, field, rng)
            U = random_jhermitian(sig, field, rng)
            V = random_jhermitian(sig, field, rng)
            g = random_invertible(sig, field, rng)
            gs = sharp(g, sig)
            moved = metric_omega(is_j_positive(g @ P.matrix @ gs, sig),
                                 g @ U @ gs, g @ V @ gs)
            base = metric_omega(P, U, V)
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_invariance_property_at_ill_conditioned_congruences(self):
        # Seeds whose random congruence g moved the metric by more than the
        # property's 1e-9 through a dense inverse of the indefinite P.
        spec, = (s for s in REGISTRY if s.property_id == "geometry.metric_invariance")
        report = run_property(spec, Context(Signature(2, 1), "C", 1e-8), 3, 1280738100)
        assert report.failures == 0, report.worst_margin

    def test_invariance_suite_at_signature_8_8(self, capsys):
        code = main(["check", "--suite", "geometry", "--signature", "8,8",
                     "--field", "R", "--trials", "20"])
        assert code == 0, capsys.readouterr().out

    def test_positivity(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            P = random_pj_bounded(SIG, field, rng)
            U = random_jhermitian(SIG, field, rng)
            assert metric_omega(P, U, U) > 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        P = random_pj_bounded(SIG, "C", rng)
        U = random_jhermitian(SIG, "C", rng)
        V = random_jhermitian(SIG, "C", rng)
        assert metric_omega(P, U, V) == pytest.approx(metric_omega(P, V, U),
                                                      rel=1e-10, abs=1e-10)

    def test_rejects_non_tangent(self):
        P = is_j_positive(SIG.matrix(), SIG)
        with pytest.raises(NotJHermitian):
            metric_omega(P, np.array([[0.0, 1.0], [1.0, 0.0]]), SIG.matrix())


class TestGeodesic:
    def test_constant_curve(self):
        rng = np.random.default_rng(3)
        A = random_pj_bounded(SIG, "R", rng)
        for t in (0.0, 0.3, 1.0):
            assert allclose(geodesic(A, A, t).matrix, A.matrix, tol=1e-10)

    def test_diagonal_midpoint(self):
        A = is_j_positive(np.diag([2.0, -3.0]), SIG)
        B = is_j_positive(np.diag([8.0, -27.0]), SIG)
        np.testing.assert_allclose(geodesic(A, B, 0.5).matrix,
                                   np.diag([4.0, -9.0]), atol=1e-12)

    def test_endpoints(self):
        rng = np.random.default_rng(4)
        for field in FIELDS:
            sig = Signature(2, 1)
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            assert allclose(geodesic(A, B, 0.0).matrix, A.matrix, tol=1e-9)
            assert allclose(geodesic(A, B, 1.0).matrix, B.matrix, tol=1e-9)

    def test_samples_stay_in_cone(self):
        rng = np.random.default_rng(5)
        A = random_pj_bounded(SIG, "C", rng)
        B = random_pj_bounded(SIG, "C", rng)
        for t in np.linspace(0.0, 1.0, 11):
            assert in_pj(geodesic(A, B, t).matrix, SIG)

    def test_pullback_consistency(self):
        rng = np.random.default_rng(6)
        for field in FIELDS:
            sig = Signature(1, 2)
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            j = sig.matrix(field)
            for t in (0.1, 0.5, 0.9):
                lhs = phi_J(geodesic(A, B, t).matrix, sig)
                rhs = classical_geodesic(j @ A.matrix, j @ B.matrix, t)
                assert allclose(lhs, rhs, tol=1e-9)

    def test_signature_mismatch(self):
        rng = np.random.default_rng(7)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(Signature(2, 0), "R", rng)
        with pytest.raises(SignatureMismatch):
            geodesic(A, B, 0.5)


class TestOdeResidual:
    def test_constant_curve_zero(self):
        # A constant curve leaves central differences no truncation error, so
        # only the rounding of u / h^2 is left: h = 0.1 keeps it near 1e-13,
        # where h = 1e-4 exceeded 1e-10 on a third or more of the draws.
        rng = np.random.default_rng(8)
        for field in FIELDS:
            for _ in range(50):
                A = random_pj_bounded(SIG, field, rng)
                assert geodesic_ode_residual(A, A, 0.5, 0.1) <= 1e-10

    def test_geodesic_satisfies_equation(self):
        rng = np.random.default_rng(9)
        for field in FIELDS:
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            scale = max(1.0, fnorm(A.matrix), fnorm(B.matrix))
            assert geodesic_ode_residual(A, B, 0.5, 1e-4) <= 1e-5 * scale

    def test_linear_impostor_fails(self):
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(20):
            A = random_pj_bounded(SIG, "R", rng)
            B = random_pj_bounded(SIG, "R", rng)
            j = SIG.matrix()

            def impostor(t):
                return j @ ((1.0 - t) * (j @ A.matrix) + t * (j @ B.matrix))

            if curve_ode_residual(impostor, 0.5, 1e-4) > 1e-2:
                hits += 1
        assert hits >= 18

    def test_step_too_small(self):
        rng = np.random.default_rng(11)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(SIG, "R", rng)
        with pytest.raises(StepTooSmall):
            geodesic_ode_residual(A, B, 0.5, 1e-8)

    def test_nan_step_is_named(self):
        rng = np.random.default_rng(11)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(SIG, "R", rng)
        with pytest.raises(StepTooSmall, match="step nan"):
            geodesic_ode_residual(A, B, 0.5, float("nan"))


class TestDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(12)
        A = random_pj_bounded(SIG, "C", rng)
        assert geodesic_distance(A, A) <= 1e-10

    def test_diagonal_closed_form(self):
        A = is_j_positive(np.diag([2.0, -3.0]), SIG)
        B = is_j_positive(np.diag([8.0, -27.0]), SIG)
        expected = np.sqrt(np.log(4.0) ** 2 + np.log(9.0) ** 2)
        assert geodesic_distance(A, B) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for field in FIELDS:
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            assert geodesic_distance(A, B) == pytest.approx(
                geodesic_distance(B, A), rel=1e-9, abs=1e-9)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(14)
        sig = Signature(2, 1)
        A = random_pj_bounded(sig, "C", rng)
        B = random_pj_bounded(sig, "C", rng)
        g = random_invertible(sig, "C", rng)
        gs = sharp(g, sig)
        moved = geodesic_distance(is_j_positive(g @ A.matrix @ gs, sig),
                                  is_j_positive(g @ B.matrix @ gs, sig))
        assert moved == pytest.approx(geodesic_distance(A, B), rel=1e-8)

    def test_segment_additivity(self):
        rng = np.random.default_rng(15)
        for field in FIELDS:
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            total = geodesic_distance(A, B)
            for t in (0.25, 0.7):
                G = geodesic(A, B, t)
                assert (geodesic_distance(A, G) + geodesic_distance(G, B)
                        == pytest.approx(total, rel=1e-8, abs=1e-8))


class TestIllConditioned:
    """Certified operands whose congruence (JA)^{-1/2} JB (JA)^{-1/2} has
    lambda_min / lambda_max far below 1e-10, while its spectrum is positive."""

    J = SIG.matrix()
    A = is_j_positive(J @ np.diag([1e4, 1e-4]), SIG)
    B = is_j_positive(J @ np.diag([1e-4, 1e4]), SIG)

    def test_closed_form_mean(self):
        assert fnorm(weighted_mean(self.A, self.B, 0.5).mean.matrix - self.J) <= 1e-12

    def test_closed_form_distance(self):
        expected = 8.0 * np.sqrt(2.0) * np.log(10.0)
        assert geodesic_distance(self.A, self.B) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_geodesic(self):
        for t in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
            g = self.J @ geodesic(self.A, self.B, t).matrix
            np.testing.assert_allclose(np.diag(g), [10 ** (4 - 8 * t), 10 ** (8 * t - 4)],
                                       rtol=1e-12)
            assert abs(g[0, 1]) <= 1e-12 and abs(g[1, 0]) <= 1e-12

    def test_seeded_large_pair(self):
        sig = Signature(128, 128)
        A, B = random_pj(sig, "R", 1), random_pj(sig, "R", 2)
        result = weighted_mean(A, B, 0.5)
        assert result.riccati_residual <= 1e-8 * fnorm(B.matrix)

    def test_nonpositive_spectrum_still_rejected(self):
        # A forged certificate: JA = diag(1, -1) is not positive definite.
        forged = JPositive(self.J @ np.diag([1.0, -1.0]), SIG, 1.0)
        with pytest.raises(NotPositive):
            geodesic(forged, self.B, 0.5)
        with pytest.raises(NotPositive):
            geodesic_distance(forged, self.B)
        with pytest.raises(NotPositive):
            pow_J(forged, 0.5)
        with pytest.raises(NotPositive):
            log_J(forged)
