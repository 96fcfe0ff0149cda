"""Stacks of matrices: every cone operation takes (..., n, n) inputs, a
one-matrix call keeps its Python return types, and a stack's verdicts and
residuals hold one value per member."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import jcone.propcheck
import jcone.stacks
from jcone.errors import NotJPositive, WeightOutOfRange
from jcone.geometry import geodesic, geodesic_distance, metric_omega
from jcone.jcalc import (GeneratorStack, exp_J, pow_J, random_invertible,
                         random_jhermitian, random_pj, random_pj_bounded)
from jcone.jstruct import Signature, block_decompose, is_j_positive, schur_j_positive
from jcone.matcore import QMatrix, _embed, fnorm, from_real, is_positive_definite, trd
from jcone.means import (ando_hiai_check, ando_hiai_normalize, furuta_check,
                         harmonic_mean_J, weighted_mean)
from jcone.order import j_leq
from jcone.propcheck import REGISTRY_BY_ID, Context, run_suite
from jcone.stacks import member, power, scatter, select
from test_cli import _modules_loaded_by

SIG = Signature(2, 1)
FIELDS = ("R", "C", "H")


def _stack(field, first, k=3):
    return random_pj(SIG, field, GeneratorStack([np.random.default_rng(first + i)
                                                 for i in range(k)]))


@pytest.mark.parametrize("field", FIELDS)
def test_one_matrix_keeps_python_types(field):
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)
    verdict = j_leq(A, B)
    mean = weighted_mean(A, B, 0.5)
    assert type(verdict.holds) is bool and type(verdict.margin) is float
    assert type(mean.riccati_residual) is float and type(mean.weight) is float
    assert type(geodesic_distance(A, B)) is float
    assert type(metric_omega(A, A.matrix, B.matrix)) is float
    assert type(A.lambda_min_of_jx) is float
    assert type(geodesic(A, B, 0.3).lambda_min_of_jx) is float
    assert type(fnorm(A.matrix)) is float and type(trd(A.matrix)) is float
    assert type(is_positive_definite(A.jx)) is bool
    assert A.jx.shape == (3, 3)


@pytest.mark.parametrize("field", FIELDS)
def test_stack_verdicts_hold_one_value_per_member(field):
    A, B = _stack(field, 1), _stack(field, 10)
    t = np.array([0.5, 0.3, 0.5])
    mean = weighted_mean(A, B, t)
    verdict = j_leq(A, B)
    assert mean.mean.jx.shape == (3, 3, 3)
    assert mean.riccati_residual.shape == (3,)
    assert np.isnan(mean.riccati_residual[1]) and mean.riccati_residual[0] < 1e-12
    assert verdict.holds.shape == verdict.margin.shape == (3,)
    assert A.lambda_min_of_jx.shape == (3,)
    for i in range(3):
        alone = weighted_mean(A.member(i), B.member(i), t[i])
        assert alone.mean == mean.mean.member(i)
        assert np.array_equal(alone.riccati_residual, mean.riccati_residual[i], equal_nan=True)
        assert j_leq(A.member(i), B.member(i)).margin == verdict.margin[i]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("t", [[-1.0, 0.3, 2.0], [0.5, 0.0, 2.0]])
def test_per_member_powers(field, t):
    A = _stack(field, 1)
    t = np.array(t)
    powered = pow_J(A, t)
    for i in range(3):
        assert pow_J(A.member(i), t[i]) == powered.member(i)


# Exponents numpy takes by their own loops (2, 0.5, -1, 0) and one it does not.
EXPONENTS = np.array([2.0, 0.5, -1.0, 0.0, 0.3])


def _eigenvalues(*shape):
    return np.random.default_rng(3).uniform(0.1, 10.0, shape)


def _power_cases():
    k = 2000   # enough rows that a vectorized power differs in some bits
    t = np.resize(EXPONENTS, k)
    w, grid, lone = _eigenvalues(k, 3), _eigenvalues(5, 400, 3), _eigenvalues(400, 3)
    return {"per member": (w, t, [np.power(w[i], float(t[i])) for i in range(k)]),
            "grid": (grid, EXPONENTS[:, None],
                     [np.power(grid[i], float(e)) for i, e in enumerate(EXPONENTS)]),
            "grid of a stack": (lone, EXPONENTS[:, None],
                                [np.power(lone, float(e)) for e in EXPONENTS]),
            "0-d": (w, np.array(0.5), np.power(w, 0.5))}


POWER_CASES = _power_cases()


@pytest.mark.parametrize("case", sorted(POWER_CASES))
def test_power_has_the_bits_of_a_loop_of_scalar_powers(case):
    w, t, expected = POWER_CASES[case]
    assert power(w, t).tobytes() == np.asarray(expected).tobytes()


def test_stacked_norm_of_huge_entries_under_a_raising_state():
    # The stacked sum of squares overflows to inf, and each row taken again
    # scaled by its largest entry underflows at 1e-200: under a caller's state
    # that raises on every error, the norms are those of the default state.
    M = np.full((2, 3, 3), 1e200)
    M[:, 0, 0] = 1e-200
    expected = [fnorm(m) for m in M]
    with np.errstate(all="raise"):
        norms = fnorm(M)
    assert norms.tolist() == expected and np.isfinite(expected).all()


# Stacks whose members are not C-ordered: each member's norm is taken alone.
LAYOUTS = {"rows reversed": lambda M: M[..., ::-1, :],
           "columns reversed": lambda M: M[..., ::-1],
           "both reversed": lambda M: M[..., ::-1, ::-1],
           "stepped by -2": lambda M: np.repeat(M, 2, axis=-1)[..., ::-1, ::-2],
           "Fortran-ordered": np.asfortranarray,
           "members transposed": lambda M: M.mT}


def _wide_range_stack(field, rng, shape):
    """Entries over twelve decades, so that the order of a sum of squares
    shows in its bits; over H the top rows [A, B] that fnorm takes."""
    def part():
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    if field == "R":
        return part()
    z = part() + 1j * part()
    return z if field == "C" else _embed(QMatrix(z, part() + 1j * part()))[..., :shape[-2], :]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_stacked_norm_of_any_layout_is_its_members_lone_norms(layout, field):
    rng = np.random.default_rng(11)
    for shape in ((5, 3, 3), (2, 3, 4, 4), (4, 7, 7)):
        for _ in range(4):
            M = LAYOUTS[layout](_wide_range_stack(field, rng, shape))
            lone = [fnorm(M[i]) for i in np.ndindex(M.shape[:-2])]
            assert fnorm(M).tobytes() == np.array(lone).reshape(M.shape[:-2]).tobytes()


@pytest.mark.parametrize("field", FIELDS)
def test_only_the_inverse_oracle_takes_the_member_by_member_norm(monkeypatch, field):
    # The member-by-member norm calls stacks._norm on each member through the
    # module's own name, which no other module calls it by: every stack the
    # suites build is C-ordered but the np.linalg.inv oracle's difference.
    running, seen = [None], set()
    norm, run_property = jcone.stacks._norm, jcone.propcheck.run_property

    def member_norm(M):
        seen.add(running[0])
        return norm(M)

    def run(spec, *args):
        running[0] = spec.property_id
        return run_property(spec, *args)

    monkeypatch.setattr(jcone.stacks, "_norm", member_norm)
    monkeypatch.setattr(jcone.propcheck, "run_property", run)
    run_suite("all", SIG, field, trials=5, seed=3)
    assert seen == {"quat.psi_homomorphism"}


def test_one_failing_member_rejects_the_stack():
    A = _stack("R", 1)
    X = A.matrix.copy()
    X[1] = -X[1]   # J(-X) is negative definite
    with pytest.raises(NotJPositive, match="lambda_min"):
        is_j_positive(X, SIG)
    with pytest.raises(WeightOutOfRange, match=r"weight 1.5 outside \[0, 1\]"):
        weighted_mean(A, A, np.array([0.5, 1.5, 0.2]))


def test_vacuous_members_of_ando_hiai():
    # Scaled up, the premise A #_t B <=_J J fails and the verdict holds
    # vacuously, with no conclusion margin; normalized, it is decisive.
    A, B = _stack("C", 1), _stack("C", 10)
    t = np.array([0.3, 0.5, 0.7])
    small = ando_hiai_normalize(A, B, t)
    big = tuple(is_j_positive(X.matrix * 100.0, SIG) for X in small)
    mixed = tuple(is_j_positive(np.where(np.array([1, 0, 1])[:, None, None], s.matrix, b.matrix),
                                SIG) for s, b in zip(small, big))
    v = ando_hiai_check(*mixed, t, 2.0)
    assert v.vacuous.tolist() == [False, True, False]
    assert v.holds.tolist() == [True, True, True]
    assert np.isnan(v.conclusion_margin[1]) and not np.isnan(v.conclusion_margin[0])


def test_random_invertible_redraws_only_rejected_members(monkeypatch):
    # Member 1's first draw is rejected: it alone draws again, from its own
    # generator, and the others keep their first draws.
    import jcone.jcalc
    real = jcone.jcalc._min_over_max_eig
    calls = []

    def first_rejects_member_1(H):
        ratio = real(H)
        if not calls and np.ndim(ratio):
            ratio = ratio.copy()
            ratio[1] = 0.0
        calls.append(np.shape(ratio))
        return ratio

    monkeypatch.setattr(jcone.jcalc, "_min_over_max_eig", first_rejects_member_1)
    rngs = [np.random.default_rng(s) for s in range(3)]
    g = random_invertible(SIG, "H", GeneratorStack(rngs))
    assert isinstance(g, QMatrix) and calls == [(3,), (3,)]
    for s in range(3):
        alone = np.random.default_rng(s)
        first = random_invertible(SIG, "H", alone)
        if s == 1:
            first = random_invertible(SIG, "H", alone)
        assert np.array_equal(g.m[s], first.m)
        assert alone.bit_generator.state == rngs[s].bit_generator.state


@pytest.mark.parametrize("field", FIELDS)
def test_schur_complement_only_where_the_leading_block_is_positive(field):
    # Member 0's leading block diag(1, 0, -1) is indefinite, so alone it is
    # rejected before A^{-1} is formed, which would fail: the stack forms the
    # Schur complement of member 1 alone.
    sig = Signature(3, 1)
    indefinite = np.diag([1.0, 0.0, -1.0, -1.0])
    positive = np.diag([2.0, 3.0, 4.0, -1.0])
    positive[0, 3], positive[3, 0] = 0.5, -0.5
    H = from_real(np.stack([indefinite, positive]), field)
    verdicts = schur_j_positive(block_decompose(H, sig))
    alone = [schur_j_positive(block_decompose(from_real(M, field), sig))
             for M in (indefinite, positive)]
    assert alone == [False, True] and verdicts.tolist() == alone


@pytest.mark.parametrize("field", FIELDS)
def test_ando_hiai_powers_only_members_whose_premise_holds(field):
    # Member 1, scaled by 1e120, fails the premise and holds vacuously alone;
    # its cube would overflow, so the stack must not power it.
    A, B = (random_pj_bounded(SIG, field, GeneratorStack([np.random.default_rng(s + i)
                                                          for i in range(2)]), radius=1.0)
            for s in (1, 10))
    small = ando_hiai_normalize(A, B, 0.4)
    scale = np.array([1.0, 1e120])[:, None, None]
    A, B = (is_j_positive(X.matrix * scale, SIG) for X in small)
    v = ando_hiai_check(A, B, 0.4, 3.0)
    for i in range(2):
        alone = ando_hiai_check(A.member(i), B.member(i), 0.4, 3.0)
        assert (alone.holds, alone.vacuous) == (v.holds[i], v.vacuous[i])
        assert np.array_equal(alone.conclusion_margin, v.conclusion_margin[i], equal_nan=True)
        assert alone.premise_margin == v.premise_margin[i]
    assert v.vacuous.tolist() == [False, True]


@pytest.mark.parametrize("field", FIELDS)
def test_harmonic_mean_endpoints_are_the_members_themselves(field):
    A, B = _stack(field, 1, 4), _stack(field, 10, 4)
    t = np.array([0.0, 0.4, 1.0, 0.0])
    mean = harmonic_mean_J(A, B, t)
    assert mean.member(0) == A.member(0) and mean.member(3) == A.member(3)
    assert mean.member(2) == B.member(2)
    assert mean.member(1) == harmonic_mean_J(A.member(1), B.member(1), 0.4)
    for i in range(4):
        alone = harmonic_mean_J(A.member(i), B.member(i), t[i])
        assert alone.lambda_min_of_jx == mean.lambda_min_of_jx[i]


@pytest.mark.parametrize("field", ["C", "H"])
def test_harmonic_mean_keeps_the_bits_of_the_members_it_passes_through(field):
    # JA has diagonal entries 3 - 0i: the member kept at weight 0 keeps the
    # sign of each zero, which a product with 1.0 over C would drop.
    P = np.diag([3.0, 4.0, 5.0]) + 0.1 * (1 + 1j) * np.triu(np.ones((3, 3)), 1)
    P = P + np.triu(P, 1).conj().T
    P.imag[np.diag_indices(3)] = -0.0
    P = np.stack([P, 2.0 * P])
    skew = np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1)
    jx = P if field == "C" else QMatrix(P, 0.1 * np.stack([skew, skew]))
    A = is_j_positive(SIG.flip(jx), SIG)
    B = _stack(field, 10, 2)
    mean = harmonic_mean_J(A, B, np.array([0.0, 0.5]))
    assert _embed(mean.member(0).jx).tobytes() == _embed(A.member(0).jx).tobytes()
    alone = harmonic_mean_J(A.member(1), B.member(1), 0.5)
    assert _embed(mean.member(1).jx).tobytes() == _embed(alone.jx).tobytes()


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _furuta_pair(field):
    # 0 <_J B <=_J A: JA = JB + Id.
    B = random_pj_bounded(SIG, field, GeneratorStack([np.random.default_rng(s)
                                                      for s in range(3)]))
    return is_j_positive(B.matrix + SIG.matrix(field), SIG), B


@pytest.mark.parametrize("field", FIELDS)
def test_per_member_furuta_matches_scalar_calls(field):
    A, B = _furuta_pair(field)
    p, r = np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0])
    per_member = furuta_check(A, B, p, r)
    # A grid (k, 1) of (p, r) over the stack of pairs: row g is point g.
    grid = furuta_check(A, B, p[:, None], r[:, None])
    assert grid.margin.shape == (3, 3)
    for i in range(3):
        for g, v in ((i, per_member), *((g, grid) for g in range(3))):
            at = i if v is per_member else (g, i)
            alone = furuta_check(A.member(i), B.member(i), float(p[g]), float(r[g]))
            assert alone.holds == v.holds[at]
            assert _bits(alone.margin) == _bits(v.margin[at])


@pytest.mark.parametrize("field", FIELDS)
def test_per_member_ando_hiai_matches_scalar_calls(field):
    # Member 1, scaled up, holds vacuously: the others are powered by their
    # own r, selected from the per-member values.
    A, B = _stack(field, 1), _stack(field, 10)
    t, r = np.array([0.3, 0.5, 0.7]), np.array([1.5, 2.0, 3.0])
    small = ando_hiai_normalize(A, B, t)
    scale = np.array([1.0, 100.0, 1.0])[:, None, None]
    for scaled in (False, True):
        A, B = (is_j_positive(X.matrix * scale, SIG) if scaled else X for X in small)
        v = ando_hiai_check(A, B, t, r)
        assert v.vacuous.tolist() == [False, scaled, False]
        for i in range(3):
            alone = ando_hiai_check(A.member(i), B.member(i), float(t[i]), float(r[i]))
            assert (alone.holds, alone.vacuous) == (v.holds[i], v.vacuous[i])
            assert _bits(alone.premise_margin) == _bits(v.premise_margin[i])
            assert _bits(alone.conclusion_margin) == _bits(v.conclusion_margin[i])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("property_id", ["ineq.furuta", "means.scaling"])
def test_a_grid_makes_the_linalg_calls_of_one_point(monkeypatch, lapack_calls, property_id,
                                                    field):
    # A property's parameter grid is a stack axis: at 3 trials its 9 points
    # make the LAPACK calls that one point makes, not 9 times as many.
    spec = REGISTRY_BY_ID[property_id]
    ctx = Context(SIG, field, 1e-8)

    def run():
        lapack_calls.clear()
        spec.func(ctx, GeneratorStack([np.random.default_rng(s) for s in range(3)]))
        return Counter(lapack_calls)

    grid = run()
    one_point = jcone.propcheck._grid
    monkeypatch.setattr(jcone.propcheck, "_grid", lambda rng, *values: one_point(rng, values[0]))
    assert spec.grid == 9 and grid == run() and sum(grid.values()) > 0


def test_each_grid_size_is_the_grid_its_property_stacks(monkeypatch):
    # PropertySpec.grid sizes run_property's blocks; it must be the number of
    # points the property puts on its grid axis, by _grid or, for
    # powers.inverse_generic_gap, by its draw stack.
    sizes, grid, draw = [], jcone.propcheck._grid, jcone.propcheck._random_matrix

    def recorded_grid(rng, *values):
        sizes.append(len(values))
        return grid(rng, *values)

    def recorded_draw(n, field, rng, stack=()):
        sizes.extend(stack)
        return draw(n, field, rng, stack)

    monkeypatch.setattr(jcone.propcheck, "_grid", recorded_grid)
    monkeypatch.setattr(jcone.propcheck, "_random_matrix", recorded_draw)
    for spec in jcone.propcheck.REGISTRY:
        sizes.clear()
        spec.func(Context(SIG, "C", 1e-8), _generators(2))
        assert set(sizes) <= {spec.grid} and bool(sizes) == (spec.grid > 1), spec.property_id


def _generators(count, first=0):
    return GeneratorStack([np.random.default_rng(first + i) for i in range(count)])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("p, q", [(2, 1), (1, 0), (0, 1)])
def test_certificate_bounds_of_a_stack_are_its_members(p, q, field):
    # A stacked exp_J or pow_J certifies each member from the eigenvalue
    # images a lone call certifies it from, so lambda_min(JX) agrees bit
    # for bit, not just the images JX.
    sig, count = Signature(p, q), 300
    X = random_pj(sig, field, _generators(count))
    H = random_jhermitian(sig, field, _generators(count, count))
    outputs = [(lambda Y, t=t: pow_J(Y, t), X, pow_J(X, t)) for t in (0.3, 2.0)]
    outputs.append((lambda Y: exp_J(Y, sig), H, exp_J(H, sig)))
    for call, inputs, stacked in outputs:
        lone = [call(member(inputs, i)).lambda_min_of_jx for i in range(count)]
        assert _bits(lone) == _bits(stacked.lambda_min_of_jx)


# Per field, generators (1, i) and (2, i) draw a pair whose stacked distance
# took other bits than its lone call while the log ran on reversed views:
# one seed for n = 1, (1, 1), n = 3 and (2, 2), at every signature of that n.
DISTANCE_SEEDS = {"R": (649, 7061, 897, 8289), "C": (10, 322, 7080, 1469),
                  "H": (188, 4184, 395, 4501)}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (2, 2), (0, 3)])
def test_stacked_distances_are_their_lone_calls(p, q, field):
    sig, seeds = Signature(p, q), DISTANCE_SEEDS[field]
    A, B = (random_pj(sig, field, GeneratorStack([np.random.default_rng((k, i)) for i in seeds]))
            for k in (1, 2))
    lone = [geodesic_distance(A.member(i), B.member(i)) for i in range(len(seeds))]
    assert _bits(lone) == _bits(geodesic_distance(A, B))


# The helpers of the stack contract, each written once, in jcone.stacks.
STACK_HELPERS = {"_out", "min_of", "max_of", "all_of", "any_of", "first_failed",
                 "per_member", "_real", "member", "select", "scatter", "_norm",
                 "_sum_of_squares", "_row_norms", "power", "_under"}
SRC = Path(jcone.propcheck.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_stack_helpers_are_defined_in_stacks_alone():
    defined = {(name, node.name) for name, tree in _trees().items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in STACK_HELPERS}
    assert defined == {("stacks.py", helper) for helper in STACK_HELPERS}
    # and imported from there, not through a module that imports them
    through = [(name, node.module, alias.name) for name, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name in STACK_HELPERS]
    assert {module for _, module, _ in through} == {"stacks"}


def test_stacks_loads_no_other_jcone_module():
    # The package is made by hand, so that its __init__, which imports every
    # module, does not run: jcone.stacks then loads what it imports alone.
    run = (f"p = types.ModuleType('jcone'); p.__path__ = [{str(SRC)!r}]; "
           "sys.modules['jcone'] = p; import jcone.stacks")
    assert _modules_loaded_by("types", "jcone", run) == "['jcone', 'jcone.stacks']"


def test_no_import_inside_a_function_but_the_lazy_suites():
    inside = [(name, func.name) for name, tree in _trees().items()
              for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == [("cli.py", "cmd_check")]


MASK = np.array([True, False, True])


def _kinds():
    """For each kind that has members, a stack of three of that kind and a
    function listing what tells its members apart."""
    arrays = np.arange(12.0).reshape(3, 2, 2)
    return [(arrays, lambda x: [m.tolist() for m in x]),
            (QMatrix(arrays, -arrays), lambda x: [m.tolist() for m in x.m]),
            (_stack("C", 1), lambda x: x.lambda_min_of_jx.tolist()),
            (_generators(3), lambda x: x.generators)]


@pytest.mark.parametrize("kind", range(4))
def test_member_and_select_of_each_kind(kind):
    x, parts = _kinds()[kind]
    picked = member(x, MASK)
    assert type(picked) is type(x) and parts(picked) == [parts(x)[0], parts(x)[2]]
    assert parts(select(x, MASK)) == parts(picked)
    assert select(x, np.ones(3, bool)) is x
    if kind < 3:   # stacks of matrices and of cone members also take an index
        assert parts(member(x, np.array([1]))) == [parts(x)[1]]
        assert parts(member(x, slice(1, 2))) == [parts(x)[1]]


def test_member_of_a_witness_dict_and_of_values_for_all():
    X = np.arange(12.0).reshape(3, 2, 2)
    witness = {"X": X, "inner": {"Y": -X}, "t": 0.5, "flag": True}
    got = member(witness, 2)
    assert np.array_equal(got["X"], X[2]) and np.array_equal(got["inner"]["Y"], -X[2])
    assert got["t"] == 0.5 and got["flag"] is True
    for value in (0.5, True, 3, np.float64(2.0)):
        assert member(value, 1) is value and select(value, MASK) is value


def test_scatter_into_each_base():
    values = np.array([10.0, 30.0])
    assert scatter(np.ones(2, bool), values, np.nan) is values
    filled = scatter(MASK, values, np.nan)
    assert np.array_equal(filled, [10.0, np.nan, 30.0], equal_nan=True)
    verdicts = scatter(MASK, np.array([True, True]), False)
    assert verdicts.dtype == bool and verdicts.tolist() == [True, False, True]
    base = np.zeros((3, 2, 2))
    assert scatter(MASK, np.ones((2, 2, 2)), base) is base
    assert base[:, 0, 0].tolist() == [1.0, 0.0, 1.0]
    quats = QMatrix(np.zeros((3, 2, 2)))
    into = scatter(MASK, QMatrix(np.ones((2, 2, 2)), np.ones((2, 2, 2))), quats)
    assert into is quats
    assert [float(q.real) for q in (quats[i, 0, 0] for i in range(3))] == [1.0, 0.0, 1.0]
    assert np.array_equal(quats.b[1], np.zeros((2, 2))) and np.array_equal(quats.b[0], np.ones((2, 2)))
