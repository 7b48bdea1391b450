"""The exact linear-algebra engine against sympy on small random matrices,
and the contract of the q = 1 fit built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import regular_at_one
from qcoiso import verify
from qcoiso.classical import FractionSpan
from qcoiso.linalg import SpanSolver, solve_affine, vec_add_scaled
from qcoiso.qfield import RatFunc
from qcoiso.recipes import builtin_recipe
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel

sympy = pytest.importorskip("sympy")

F0, F1 = Fraction(0), Fraction(1)

_entries = st.one_of(
    st.just(F0),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


def _matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(_entries, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    )


def _sparse(row, keys=None):
    return {k: x for k, x in zip(keys or range(len(row)), row) if x}


def _sym(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _dense(reduced, keys):
    return [[F1 if k == p else tail.get(k, F0) for k in keys] for p, tail in reduced.items()]


def _combine(coeffs, rows):
    out = {}
    for k, c in coeffs.items():
        vec_add_scaled(out, _sparse(rows[k]), c)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices())
def test_reduced_rows_match_sympy_rref(rows):
    solver = SpanSolver()
    for row in rows:
        solver.add(_sparse(row))
    rref, pivots = _sym(rows).rref()
    assert list(solver.reduced_rows()) == list(pivots)
    want = [[_frac(x) for x in rref.row(i)] for i in range(len(pivots))]
    assert _dense(solver.reduced_rows(), range(len(rows[0]))) == want


_tuple_keys = st.one_of(
    st.tuples(st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices(), st.data())
def test_reduced_rows_match_sympy_rref_under_key_order(rows, data):
    n = len(rows[0])
    keys = data.draw(st.lists(_tuple_keys, min_size=n, max_size=n, unique=True))
    span = FractionSpan()
    for row in rows:
        span.add(_sparse(row, keys))
    # sympy sees the columns in the keys' own order
    order = sorted(range(n), key=lambda j: keys[j])
    rref, pivots = _sym([[row[j] for j in order] for row in rows]).rref()
    assert list(span.reduced_rows()) == [keys[order[p]] for p in pivots]
    want = [[_frac(x) for x in rref.row(i)] for i in range(len(pivots))]
    assert _dense(span.reduced_rows(), [keys[j] for j in order]) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices(), st.data())
def test_solve_affine_against_sympy(rows, data):
    n = len(rows[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_entries, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), F0) for row in rows]
    else:
        rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    sol = solve_affine(list(zip(rows, rhs)), n)
    a = _sym(rows)
    consistent = a.rank() == a.row_join(_sym([[b] for b in rhs])).rank()
    assert (sol is not None) == consistent
    if sol is not None:
        for row, b in zip(rows, rhs):
            assert sum((a * sol.get(j, F0) for j, a in enumerate(row)), F0) == b
        # free variables are set to 0
        assert set(sol) <= set(a.rref()[1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices())
def test_rational_dependency_against_sympy(rows):
    dep = verify._rational_dependency([_sparse(row) for row in rows])
    assert (dep is None) == (_sym(rows).rank() == len(rows))
    if dep is not None:
        assert dep and all(dep.values())
        assert _combine(dep, rows) == {}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrices(), st.data())
def test_tagged_solve_reexpands(rows, data):
    n = len(rows[0])
    solver = SpanSolver()
    for k, row in enumerate(rows):
        solver.add(_sparse(row), {k: F1})
    if data.draw(st.booleans()):
        c = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
        target = [sum((a * row[j] for a, row in zip(c, rows)), F0) for j in range(n)]
    else:
        target = data.draw(st.lists(_entries, min_size=n, max_size=n))
    coeffs = solver.solve(_sparse(target))
    in_span = _sym(rows).rank() == _sym(rows + [target]).rank()
    assert (coeffs is not None) == in_span
    if coeffs is not None:
        assert _combine(coeffs, rows) == _sparse(target)
    assert len(solver.nullrows) == len(rows) - solver.rank()
    for tag in solver.nullrows:
        assert _combine(tag, rows) == {}


def test_fit_q1_contract(monkeypatch):
    # G2 at 3a1+2a2 is the acceptance case whose fits take saturation steps,
    # so the contract is checked where the picked dependency matters
    rs = build_root_system(CartanType("G", 2))
    recipe = builtin_recipe(rs, parse_root(rs, "3a1+2a2"))
    fits = []
    fit = verify._fit_q1_constraints

    def recording(particular, nullspace, degree_one):
        result = fit(particular, nullspace, degree_one)
        fits.append((particular, nullspace, degree_one, result))
        return result

    monkeypatch.setattr(verify, "_fit_q1_constraints", recording)
    verify.check_flatness(recipe, UqBorel(rs, max_degree=2 * recipe.max_degree()))
    saturated = 0
    for particular, nullspace, degree_one, result in fits:
        assert result is not None
        values = [verify._vec_value_at_one(verify._vec_shift(v, -verify._vec_order_at_one(v)))
                  for v in nullspace]
        saturated += verify._rational_dependency(values) is not None
        for label, c in result.items():
            assert regular_at_one(c)
            if label not in degree_one:
                assert c.eval_at_one() == 0
        span = SpanSolver()
        for vec in nullspace:
            span.add(vec)
        assert span.contains(vec_add_scaled(dict(result), particular, RatFunc.from_int(-1)))
    assert saturated == 2
