import numpy as np
import pytest

from jcone.errors import NotHermitian, NotJHermitian
from jcone.jcalc import pow_J, random_invertible, random_pj, random_pj_bounded
from jcone.jstruct import Signature, is_j_positive, phi_J_inv, sharp
from jcone.matcore import adjoint, fnorm, mat_inverse
from jcone.order import j_leq, loewner_leq

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")


def comparable_pair(sig, field, rng, eps=1.0):
    X = random_pj_bounded(sig, field, rng)
    g = random_invertible(sig, field, rng)
    bump = g @ adjoint(g)
    bump = bump * (eps / max(1.0, fnorm(bump)))
    Y = is_j_positive(X.matrix + phi_J_inv(bump, sig), sig)
    return X, Y


class TestLoewner:
    def test_identity_vs_double(self):
        v = loewner_leq(np.eye(2), 2.0 * np.eye(2))
        assert v.holds and v.margin == pytest.approx(1.0)

    def test_crossing_diagonals_fail(self):
        v = loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
        assert not v.holds and v.margin == pytest.approx(-1.0)

    def test_reflexive(self):
        X = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = loewner_leq(X, X)
        assert v.holds and abs(v.margin) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestJOrder:
    def test_j_vs_two_j(self):
        assert j_leq(SIG.matrix(), 2.0 * SIG.matrix(), SIG).holds

    def test_diagonal_example(self):
        assert j_leq(np.diag([2.0, -3.0]), np.diag([3.0, -4.0]), SIG).holds

    def test_reflexive(self):
        X = np.array([[3.0, 1.0], [-1.0, -1.0]])
        assert j_leq(X, X, SIG).holds

    def test_rejects_non_j_hermitian(self):
        with pytest.raises(NotJHermitian):
            j_leq(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2), SIG)


class TestOrderLemmas:
    def test_power_monotonicity_unit_interval(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            field = FIELDS[trial % 3]
            sig = (SIG, Signature(2, 1))[trial % 2]
            X, Y = comparable_pair(sig, field, rng)
            for t in (0.25, 0.5, 0.75, 1.0):
                assert j_leq(pow_J(X, t), pow_J(Y, t), tol=1e-8).holds

    def test_power_monotonicity_fails_at_two(self):
        rng = np.random.default_rng(1)
        violations = 0
        for _ in range(200):
            X, Y = comparable_pair(SIG, "R", rng)
            v = j_leq(pow_J(X, 2.0), pow_J(Y, 2.0), tol=1e-8)
            if v.margin < -1e-6:
                violations += 1
        assert violations >= 1

    def test_congruence(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            field = FIELDS[trial % 3]
            X, Y = comparable_pair(SIG, field, rng)
            C = random_invertible(SIG, field, rng)
            cs = sharp(C, SIG)
            assert j_leq(cs @ X.matrix @ C, cs @ Y.matrix @ C, SIG,
                         tol=1e-8).holds

    def test_inverse_antimonotonicity(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            field = FIELDS[trial % 3]
            sig = Signature(1, 2)
            X, Y = comparable_pair(sig, field, rng)
            assert j_leq(mat_inverse(Y.matrix), mat_inverse(X.matrix), sig,
                         tol=1e-8).holds


@pytest.mark.parametrize("single", [np.float32, np.complex64])
def test_single_precision_margin_is_its_double_widenings(single):
    # Single-precision operands are widened where J or the Hermitian test
    # first reads them, so the margins are those of the pair widened to
    # double; a float32 difference gave the R pair a margin 2e-7 above its
    # widening's.
    sig = Signature(2, 1)
    field = "C" if single is np.complex64 else "R"
    pair = [random_pj(sig, field, seed).matrix.astype(single) for seed in (3, 13)]
    wide = [X.astype(np.result_type(single, np.float64)) for X in pair]
    certified, certified_wide = ([is_j_positive(X, sig) for X in p] for p in (pair, wide))
    margins = [j_leq(*certified).margin, j_leq(*pair, sig).margin,
               loewner_leq(*(A.jx for A in certified)).margin]
    theirs = [j_leq(*certified_wide).margin, j_leq(*wide, sig).margin,
              loewner_leq(*(A.jx for A in certified_wide)).margin]
    assert np.array(margins).tobytes() == np.array(theirs).tobytes()
