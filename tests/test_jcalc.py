import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import jcone.jcalc
from jcone.errors import DimensionMismatch, NotJHermitian, NotJPositive, Singular
from jcone.jcalc import (GeneratorStack, _random_matrix, bullet,
                         bullet_commutator, bullet_inverse, exp_J, log_J,
                         polar_decompose_bullet, pow_J, random_invertible,
                         random_jhermitian, random_kj, random_pj,
                         random_pj_bounded)
from jcone.jstruct import (JPositive, Signature, in_pj, is_in_K_J,
                           is_j_hermitian, is_j_positive, sharp)
from jcone.matcore import (QMatrix, _embed, adjoint, allclose,
                           eigvals_hermitian, fnorm, from_real, identity,
                           mat_inverse)
from jcone.stacks import member, per_member

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")


class TestBullet:
    def test_j_neutral(self):
        rng = np.random.default_rng(0)
        for field in FIELDS:
            sig = Signature(2, 1)
            j = sig.matrix(field)
            A = random_invertible(sig, field, rng)
            assert allclose(bullet(j, A, sig), A, tol=1e-14)
            assert allclose(bullet(A, j, sig), A, tol=1e-14)

    def test_diagonal_example(self):
        got = bullet(np.diag([2.0, -3.0]), np.diag([8.0, -27.0]), SIG)
        np.testing.assert_allclose(got, np.diag([16.0, -81.0]))

    def test_associative(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            sig = Signature(1, 2)
            A, B, C = (random_invertible(sig, field, rng) for _ in range(3))
            assert allclose(bullet(bullet(A, B, sig), C, sig),
                            bullet(A, bullet(B, C, sig), sig), tol=1e-12)

    def test_inverse(self):
        assert allclose(bullet_inverse(SIG.matrix(), SIG), SIG.matrix())
        np.testing.assert_allclose(bullet_inverse(np.diag([2.0, -3.0]), SIG),
                                   np.diag([0.5, -1.0 / 3.0]))
        rng = np.random.default_rng(2)
        for field in FIELDS:
            sig = Signature(2, 1)
            A = random_invertible(sig, field, rng)
            assert allclose(bullet(A, bullet_inverse(A, sig), sig),
                            sig.matrix(field), tol=1e-10)
            assert allclose(bullet(bullet_inverse(A, sig), A, sig),
                            sig.matrix(field), tol=1e-10)

    def test_dimension_mismatch(self):
        # J is applied as a row sign flip, which would broadcast a 1 x n operand.
        sig = Signature(2, 1)
        for A, B in ((np.eye(3), np.ones((1, 3))), (np.ones((3, 1)), np.eye(3))):
            with pytest.raises(DimensionMismatch):
                bullet(A, B, sig)
        with pytest.raises(DimensionMismatch):
            bullet_inverse(np.eye(2), sig)

    def test_commutator(self):
        rng = np.random.default_rng(3)
        X = random_invertible(SIG, "R", rng)
        assert fnorm(bullet_commutator(X, X, SIG)) <= 1e-14
        assert fnorm(bullet_commutator(SIG.matrix(), X, SIG)) <= 1e-14

    def test_commutator_nonzero_for_product_commuting_pair(self):
        # This pair commutes for the ordinary product but not for the bullet.
        A = np.array([[2.0, 1.0], [-1.0, -2.0]])
        B = np.array([[3.0, 1.0], [-1.0, -1.0]])
        assert fnorm(A @ B - B @ A) <= 1e-14
        assert fnorm(bullet_commutator(A, B, SIG)) > 1.0


class TestExpLog:
    def test_exp_of_zero_is_j(self):
        got = exp_J(np.zeros((2, 2)), SIG)
        np.testing.assert_allclose(got.matrix, SIG.matrix())

    def test_paper_cosh_sinh_example(self):
        X = np.array([[0, 1j], [1j, 0]])
        expected = np.array([[np.cosh(1), 1j * np.sinh(1)],
                             [1j * np.sinh(1), -np.cosh(1)]])
        np.testing.assert_allclose(exp_J(X, SIG).matrix, expected, atol=1e-12)

    def test_diagonal_example(self):
        X = np.diag([np.log(2.0), -np.log(3.0)])
        np.testing.assert_allclose(exp_J(X, SIG).matrix, np.diag([2.0, -3.0]),
                                   atol=1e-12)

    def test_log_of_j_is_zero(self):
        cert = is_j_positive(SIG.matrix(), SIG)
        assert fnorm(log_J(cert)) <= 1e-12

    def test_log_diagonal(self):
        cert = is_j_positive(np.diag([2.0, -3.0]), SIG)
        np.testing.assert_allclose(log_J(cert),
                                   np.diag([np.log(2.0), -np.log(3.0)]),
                                   atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj(sig, field, rng)
            assert allclose(exp_J(log_J(X), sig).matrix, X.matrix, tol=1e-9)
            H = random_jhermitian(sig, field, rng)
            assert allclose(log_J(exp_J(H, sig)), H, tol=1e-9)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("rows", [[800.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [800.0, 0.0, 0.0]]])
    def test_overflow_is_named_without_a_warning(self, rows, field):
        # exp(800) overflows: the member is rejected by name, and the product
        # with the eigenvectors, which meets inf * 0, warns nothing.
        X = from_real(np.asarray(rows)[..., :, None] * np.eye(3), field)
        with pytest.raises(NotJPositive, match="computed eigenvalue inf of JX not finite"):
            exp_J(X, Signature(2, 1))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("rows", [[1e11, 2e11, 3e11], [[1, 2, 3], [1e11, 2e11, 3e11]]])
    def test_power_overflow_is_named_without_a_warning(self, rows, field):
        # JX = diag(rows): (1e11)**32 overflows, and the product with the
        # eigenvectors, which meets inf * 0, warns nothing.
        sig = Signature(2, 1)
        X = is_j_positive(sig.flip(from_real(np.asarray(rows)[..., :, None] * np.eye(3),
                                             field)), sig)
        with pytest.raises(NotJPositive, match="computed eigenvalue inf of JX not finite"):
            pow_J(X, 32.0)

    def test_exp_requires_j_hermitian(self):
        with pytest.raises(NotJHermitian):
            exp_J(np.array([[0.0, 1.0], [1.0, 0.0]]), SIG)

    def test_inverse_exponential_law(self):
        rng = np.random.default_rng(5)
        for field in FIELDS:
            sig = Signature(1, 2)
            X = random_jhermitian(sig, field, rng)
            j = sig.matrix(field)
            from jcone.matcore import mat_exp_h
            lhs = mat_inverse(exp_J(X, sig).matrix)
            rhs = mat_exp_h(-(j @ X)) @ j
            assert allclose(lhs, rhs, tol=1e-10)

    def test_inverse_usually_differs_from_exp_of_negative(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(50):
            X = random_jhermitian(SIG, "C", rng)
            gap = fnorm(mat_inverse(exp_J(X, SIG).matrix)
                        - exp_J(-X, SIG).matrix)
            if gap > 1e-6:
                hits += 1
        assert hits >= 45


class TestPowers:
    @pytest.mark.parametrize("t", [np.nan, 32.5, -32.5, np.array([0.5, np.nan])])
    def test_power_outside_its_range_is_named(self, t):
        # Checked before the eigendecomposition: a NaN power would otherwise
        # surface as a NaN eigenvalue of the result.
        X = random_pj(Signature(2, 1), "R", 3)
        with pytest.raises(ValueError, match=r"^\|t\| > 32.0 rejected"):
            pow_J(X, t)
        pow_J(X, 32.0), pow_J(X, -32.0)   # the bounds themselves are in range

    def test_power_zero_and_one(self):
        rng = np.random.default_rng(7)
        X = random_pj(SIG, "C", rng)
        assert allclose(pow_J(X, 0.0).matrix, SIG.matrix("C"), tol=1e-12)
        assert allclose(pow_J(X, 1.0).matrix, X.matrix, tol=1e-12)

    def test_diagonal_square_root(self):
        X = is_j_positive(np.diag([16.0, -81.0]), SIG)
        np.testing.assert_allclose(pow_J(X, 0.5).matrix, np.diag([4.0, -9.0]),
                                   atol=1e-12)

    def test_square_of_square_root(self):
        rng = np.random.default_rng(8)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj(sig, field, rng)
            assert allclose(pow_J(pow_J(X, 0.5), 2.0).matrix, X.matrix,
                            tol=1e-9)

    def test_power_laws(self):
        rng = np.random.default_rng(9)
        sig = Signature(1, 2)
        for field in FIELDS:
            X = random_pj_bounded(sig, field, rng)
            j = sig.matrix(field)
            s, t = 0.7, -1.3
            assert allclose(pow_J(pow_J(X, s), t).matrix,
                            pow_J(X, s * t).matrix, tol=1e-9)
            assert allclose(log_J(pow_J(X, s)), s * log_J(X), tol=1e-9)
            assert allclose(mat_inverse(pow_J(X, s).matrix),
                            pow_J(is_j_positive(mat_inverse(X.matrix), sig),
                                  s).matrix, tol=1e-9)
            assert allclose(bullet(pow_J(X, s), pow_J(X, -s), sig), j,
                            tol=1e-9)

    def test_large_exponent_rejected(self):
        rng = np.random.default_rng(10)
        X = random_pj(SIG, "R", rng)
        with pytest.raises(ValueError):
            pow_J(X, 33.0)

    def test_kj_congruence(self):
        rng = np.random.default_rng(11)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj_bounded(sig, field, rng)
            g = random_kj(sig, field, rng)
            for t in (-1.0, 0.3, 0.5, 2.0):
                lhs = pow_J(is_j_positive(g @ X.matrix @ sharp(g, sig), sig), t)
                rhs = g @ pow_J(X, t).matrix @ sharp(g, sig)
                assert allclose(lhs.matrix, rhs, tol=1e-9)

    def test_commuting_bullet_powers(self):
        rng = np.random.default_rng(12)
        for field in FIELDS:
            sig = Signature(1, 1)
            S = random_pj_bounded(sig, field, rng)
            X, Y = pow_J(S, 0.8), pow_J(S, -0.4)
            prod = is_j_positive(bullet(X, Y, sig), sig)
            for t in (0.5, 2.0):
                assert allclose(pow_J(prod, t).matrix,
                                bullet(pow_J(X, t), pow_J(Y, t), sig),
                                tol=1e-9)


class TestPolar:
    def test_identity(self):
        k, p = polar_decompose_bullet(np.eye(2), SIG)
        np.testing.assert_allclose(k, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p.matrix, SIG.matrix(), atol=1e-12)

    def test_unitary_input(self):
        g = np.diag([np.exp(0.4j), np.exp(-0.9j)])
        k, p = polar_decompose_bullet(g, SIG)
        np.testing.assert_allclose(p.matrix, SIG.matrix("C"), atol=1e-12)
        np.testing.assert_allclose(k, g, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(13)
        for field in FIELDS:
            sig = Signature(2, 1)
            g = random_invertible(sig, field, rng)
            k, p = polar_decompose_bullet(g, sig)
            eye = identity(sig.n, field)
            assert fnorm(adjoint(k) @ k - eye) <= 1e-9
            assert allclose(bullet(k, p, sig), g, tol=1e-9)

    def test_tiny_singular_value(self):
        # Singular values 1, 1e-7, 1: above the 1e-13 ratio of the Singular test.
        sig = Signature(2, 1)
        g = np.diag([1.0, 1e-7, 1.0])
        k, p = polar_decompose_bullet(g, sig)
        np.testing.assert_allclose(bullet(k, p, sig), g, rtol=0.0, atol=1e-15)
        assert p.lambda_min_of_jx == pytest.approx(1e-7, rel=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("ratio", [1e-7, 1e-11])
    def test_tiny_singular_value_non_diagonal(self, field, ratio):
        # The eigenvalue ratio^2 of g* g is lost to rounding at ||g||^2 * eps;
        # the factors must come from g itself.
        sig = Signature(2, 1)
        rng = np.random.default_rng(17)
        q1, q2 = (polar_decompose_bullet(random_invertible(sig, field, rng), sig)[0]
                  for _ in range(2))
        g = q1 @ from_real(np.diag([1.0, ratio, 1.0]), field) @ q2
        k, p = polar_decompose_bullet(g, sig)
        assert fnorm(adjoint(k) @ k - identity(sig.n, field)) <= 1e-9
        assert allclose(bullet(k, p, sig), g, tol=1e-12)
        assert p.lambda_min_of_jx == pytest.approx(ratio, rel=1e-3)

    def test_singular_named(self):
        with pytest.raises(Singular):
            polar_decompose_bullet(np.diag([1.0, 1e-14, 1.0]), Signature(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            polar_decompose_bullet(np.eye(1), Signature(2, 1))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_entry_named_without_hanging(self, value):
        # numpy's svd need not return on an infinite entry, and raises a bare
        # LinAlgError on a NaN one.  The call runs in a child process under a
        # timeout, so a hang fails this test instead of stalling the suite.
        code = ("from jcone import NotFinite, Signature, polar_decompose_bullet, random_pj\n"
                "sig = Signature(2, 1)\n"
                "X = random_pj(sig, 'R', 0).matrix.copy()\n"
                f"X[0, 0] = float('{value}')\n"
                "try:\n"
                "    polar_decompose_bullet(X, sig)\n"
                "except NotFinite as exc:\n"
                "    print('NotFinite:', exc)\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "NotFinite: an entry is not finite\n"


class TestRandomGenerators:
    def test_determinism(self):
        for field in FIELDS:
            a = random_pj(SIG, field, 42)
            b = random_pj(SIG, field, 42)
            assert allclose(a.matrix, b.matrix, tol=0.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_pj_draws_match_g_j_g_sharp(self, field):
        # g (Jg)* is g J g# = g J (J g* J) with its two cancelling flips left
        # out: the same members, bit for bit.
        sig = Signature(2, 1)
        for seed in range(50):
            g = random_invertible(sig, field, seed)
            want = is_j_positive(g @ sig.flip(sharp(g, sig)), sig)
            got = random_pj(sig, field, seed)
            assert np.array_equal(_embed(got.jx), _embed(want.jx))
            assert got.lambda_min_of_jx == want.lambda_min_of_jx

    def test_pj_membership(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            field = FIELDS[trial % 3]
            sig = (Signature(1, 1), Signature(2, 1), Signature(1, 3))[trial % 3]
            assert in_pj(random_pj(sig, field, rng).matrix, sig)

    def test_kj_membership(self):
        rng = np.random.default_rng(15)
        for field in FIELDS:
            sig = Signature(2, 2)
            g = random_kj(sig, field, rng)
            assert is_in_K_J(g, sig)

    def test_jhermitian_membership(self):
        rng = np.random.default_rng(16)
        for field in FIELDS:
            sig = Signature(2, 1)
            assert is_j_hermitian(random_jhermitian(sig, field, rng), sig)

    def test_bounded_log(self):
        rng = np.random.default_rng(17)
        for field in FIELDS:
            X = random_pj_bounded(Signature(2, 1), field, rng, radius=2.0)
            assert fnorm(log_J(X)) <= 2.0 + 1e-9


def _drawn_part_by_part(n, field, rng):
    """A Gaussian matrix from one (n, n) draw per real part, in the order 1,
    i, j, k: the composition the samplers' one draw per generator replaces."""
    x = rng.standard_normal((n, n))
    if field == "R":
        return x
    z = x + 1j * rng.standard_normal((n, n))
    if field == "C":
        return z
    return QMatrix(z, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _jhermitian_part(sig, field, rng):
    y = _drawn_part_by_part(sig.n, field, rng)
    return (y + sharp(y, sig)) * 0.5


def _exp_of_bounded(sig, field, rng, radius):
    # exp_J of the J-Hermitian draw, rescaled to ||X||_F <= radius, through
    # the public exp_J with its J-Hermitian test.
    x = _jhermitian_part(sig, field, rng)
    nrm = fnorm(x)
    if np.any(nrm > radius):
        x = x * per_member(np.where(nrm > radius, radius / nrm, 1.0))
    return exp_J(x, sig)


def _min_over_max_eig_tested(H):
    lam = eigvals_hermitian(H)
    top = np.maximum(np.maximum(abs(lam[..., 0]), abs(lam[..., -1])), 1e-300)
    return lam[..., -1] / top


def _generators(stacked, seed):
    if stacked:
        return GeneratorStack([np.random.default_rng((seed, i)) for i in range(3)])
    return np.random.default_rng(seed)


def _state(rng):
    gens = rng.generators if isinstance(rng, GeneratorStack) else [rng]
    return [g.bit_generator.state for g in gens]


def _bits(X) -> bytes:
    """Every bit of a matrix, a stack of them or a cone member, the sign of
    a zero included, and a member's lambda_min(JX)."""
    if isinstance(X, JPositive):
        return _bits(X.jx) + np.asarray(X.lambda_min_of_jx, dtype=float).tobytes()
    return np.ascontiguousarray(_embed(X)).tobytes()


SAMPLER_SIGS = [Signature(2, 1), Signature(1, 0), Signature(0, 1), Signature(3, 2)]
SAMPLERS = ["random_pj_bounded", "random_jhermitian", "random_invertible", "random_pj",
            "random_kj"]


class TestSamplersByConstruction:
    """The samplers build their members by construction, untested but for
    the eigenvalues of a cone member, and keep every bit and every stream of
    the compositions they replace: the J-Hermitian part (y + y#)/2 of a draw
    of y made part by part, exp_J of it rescaled, and a conditioning test
    through the Hermitian test of g* g."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_bits_of_the_composition_replaced(self, monkeypatch, name, field, stacked):
        sampler = getattr(jcone.jcalc, name)
        for sig in SAMPLER_SIGS:
            for seed in range(4):
                want_rng, got_rng = _generators(stacked, seed), _generators(stacked, seed)
                if name == "random_pj_bounded":
                    radius = (2.0, 1.0)[seed % 2]
                    want = _exp_of_bounded(sig, field, want_rng, radius)
                    got = sampler(sig, field, got_rng, radius=radius)
                elif name == "random_jhermitian":
                    want = _jhermitian_part(sig, field, want_rng)
                    got = sampler(sig, field, got_rng)
                else:
                    with monkeypatch.context() as m:
                        m.setattr(jcone.jcalc, "_random_matrix", _drawn_part_by_part)
                        m.setattr(jcone.jcalc, "_min_over_max_eig", _min_over_max_eig_tested)
                        want = sampler(sig, field, want_rng)
                    got = sampler(sig, field, got_rng)
                assert _bits(got) == _bits(want), (sig, seed)
                assert _state(got_rng) == _state(want_rng)

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_draw_takes_the_stream_of_one_draw_per_part(self, field):
        for stacked in (False, True):
            for stack in ((), (10,)):
                got_rng, want_rng = _generators(stacked, 5), _generators(stacked, 5)
                got = _random_matrix(3, field, got_rng, stack)
                want = [_drawn_part_by_part(3, field, want_rng) for _ in range(10 if stack else 1)]
                if not stack:
                    assert _bits(got) == _bits(want[0])
                elif stacked:
                    # (generators, 10, n, n): each generator's 10 draws in turn.
                    for i in range(3):
                        for k in range(10):
                            assert _bits(member(member(got, i), k)) == _bits(member(want[k], i))
                else:
                    assert all(_bits(member(got, k)) == _bits(want[k]) for k in range(10))
                assert _state(got_rng) == _state(want_rng)

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_draw_on_the_members_a_mask_selects(self, field):
        # random_invertible redraws its rejected members on rng.member(mask):
        # each selected generator draws as it would alone, the others not at all.
        mask = np.array([True, False, True, False, True])
        rngs = GeneratorStack([np.random.default_rng(s) for s in range(5)])
        got = _random_matrix(2, field, rngs.member(mask))
        for i, s in enumerate(np.flatnonzero(mask)):
            alone = np.random.default_rng(int(s))
            assert _bits(member(got, i)) == _bits(_drawn_part_by_part(2, field, alone))
            assert rngs.generators[s].bit_generator.state == alone.bit_generator.state
        for s in np.flatnonzero(np.logical_not(mask)):
            fresh = np.random.default_rng(int(s)).bit_generator.state
            assert rngs.generators[s].bit_generator.state == fresh

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_bounded_draw_takes_one_eigh_and_no_hermitian_test(
            self, lapack_calls, hermitian_tests, field, stacked):
        sig = Signature(2, 1)
        lapack_calls.clear()
        random_pj_bounded(sig, field, _generators(stacked, 3))
        assert lapack_calls == ["eigh"] and hermitian_tests == []
        # The public exp_J keeps its one J-Hermitian test.
        exp_J(random_jhermitian(sig, field, _generators(stacked, 3)), sig)
        assert hermitian_tests == [sig.n]

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_conditioning_test_takes_one_eigvalsh_and_no_hermitian_test(
            self, lapack_calls, hermitian_tests, field, stacked):
        lapack_calls.clear()
        random_invertible(Signature(2, 1), field, _generators(stacked, 3))
        assert lapack_calls == ["eigvalsh"] and hermitian_tests == []


class TestRandomKJ:
    """random_kj draws diag(u_p, u_q) with each block Haar on O(n), U(n) or
    Sp(n): over R and C the phase-fixed QR factor of a Gaussian block, over
    H its unitary polar factor."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("sig", [Signature(2, 1), Signature(3, 2)], ids=str)
    def test_blocks_are_haar_unitaries(self, sig, field):
        draws, p = 4000, sig.p
        g = random_kj(sig, field, GeneratorStack(np.random.default_rng(s) for s in range(draws)))
        for off in (g[..., :p, p:], g[..., p:, :p]):
            assert not np.any(_embed(off))
        assert np.all(is_in_K_J(g, sig))
        for i in range(5):
            assert _bits(member(g, i)) == _bits(random_kj(sig, field, np.random.default_rng(i)))
        # Haar moments of a block u: E tr u = 0 and E |tr u|^2 = 1, the trace
        # of Psi(u) over H, where Sp(n) acts irreducibly on C^2n.
        for block in (g[..., :p, :p], g[..., p:, p:]):
            tr = np.trace(_embed(block), axis1=-2, axis2=-1)
            assert abs(tr.mean()) <= 0.1
            assert abs(np.mean(abs(tr) ** 2) - 1.0) <= 0.1
