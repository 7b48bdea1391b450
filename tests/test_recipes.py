import pytest

from qcoiso.classical import (
    FractionSpan,
    ad_bivector,
    build_r_matrix,
    build_realization,
    coisotropic_generators,
)
from qcoiso.linalg import vec_add_scaled
from qcoiso.recipes import (
    Gen,
    QBr,
    RecipeError,
    builtin_recipe,
    classical_limit_expr,
    eval_bracket_expr,
    load_e6_recipes,
    parse_recipe,
    serialize_recipe,
)
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel, q_bracket

_RS = {}


def rs_of(series, rank):
    key = (series, rank)
    if key not in _RS:
        _RS[key] = build_root_system(CartanType(series, rank))
    return _RS[key]


def test_eval_bracket_expr_single():
    rs = rs_of("A", 2)
    alg = UqBorel(rs)
    expr = QBr(Gen(0), Gen(1), 1)
    assert eval_bracket_expr(expr, alg) == q_bracket(alg.gen(0), alg.gen(1), 1)


def test_builtin_a3_structure():
    rs = rs_of("A", 3)
    beta = parse_root(rs, "L1-L4")
    recipe = builtin_recipe(rs, beta)
    assert recipe.k_monomial == (1, 1, 1)
    assert recipe.names() == ["X1", "X2", "X3", "D3", "D2"]
    assert recipe.max_degree() == 3
    # X2 is [E1, E2]_q
    x2 = dict(zip(recipe.names(), (e for _, _, e in recipe.generators)))["X2"]
    assert x2 == QBr(Gen(0), Gen(1), 1)


def test_builtin_c3_structure():
    rs = rs_of("C", 3)
    recipe = builtin_recipe(rs, parse_root(rs, "2L1"))
    assert recipe.k_monomial == (2, 2, 1)
    assert recipe.names() == ["X1", "X2", "X", "Y2", "Y1"]
    by_name = {n: e for n, _, e in recipe.generators}
    assert by_name["X"] == QBr(QBr(Gen(0), Gen(1), 1), Gen(2), 2)
    assert by_name["Y2"] == QBr(by_name["X"], Gen(1), 1)


def test_builtin_g2_structure():
    rs = rs_of("G", 2)
    recipe = builtin_recipe(rs, parse_root(rs, "3a1+2a2"))
    assert recipe.k_monomial == (3, 2)
    assert recipe.names() == ["E2", "X", "Y", "Z", "T"]
    by_name = {n: e for n, _, e in recipe.generators}
    assert by_name["X"] == QBr(Gen(1), Gen(0), 3)
    assert by_name["Y"] == QBr(by_name["X"], Gen(0), 1)
    assert by_name["Z"] == QBr(by_name["Y"], Gen(0), -1)
    assert by_name["T"] == QBr(by_name["Z"], Gen(1), 0)


def test_builtin_unsupported():
    rs = rs_of("C", 2)
    with pytest.raises(RecipeError):
        builtin_recipe(rs, parse_root(rs, "2L2"))
    with pytest.raises(RecipeError):
        builtin_recipe(rs, parse_root(rs, "L1-L2"))


ACCEPTANCE_CASES = [
    ("A", 2, "L1-L3"),
    ("A", 3, "L1-L4"),
    ("C", 2, "2L1"),
    ("C", 3, "2L1"),
    ("D", 4, "L1+L2"),
    ("D", 4, "L1+L4"),
    ("B", 2, "L1+L2"),
    ("B", 3, "L1+L2"),
    ("G", 2, "3a1+a2"),
    ("G", 2, "3a1+2a2"),
]


@pytest.mark.parametrize("series,rank,lit", ACCEPTANCE_CASES)
def test_builtin_recipes_evaluate_nonzero(series, rank, lit):
    rs = rs_of(series, rank)
    recipe = builtin_recipe(rs, parse_root(rs, lit))
    alg = UqBorel(rs, max_degree=recipe.max_degree() + 2)
    values = recipe.evaluate(alg)
    assert all(not v.is_zero() for _, v in values)


@pytest.mark.parametrize("series,rank,lit", ACCEPTANCE_CASES)
def test_builtin_recipes_lift_classical_generators(series, rank, lit):
    rs = rs_of(series, rank)
    beta = parse_root(rs, lit)
    recipe = builtin_recipe(rs, beta)
    cb = build_realization(rs)
    pi = build_r_matrix(cb)
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    span = FractionSpan()
    for g in gens:
        span.add(g)
    # each bracket's classical limit lies in the classical span
    limits = []
    for name, _, expr in recipe.generators:
        lim = classical_limit_expr(expr, cb, recipe.auxiliaries)
        assert lim, f"{name} has zero classical limit"
        assert span.contains(lim), f"{name} is outside the classical span"
        limits.append(lim)
    # the K-monomial accounts for the Cartan line: kexp -> sum kexp_i d_i H_i
    cartan = {}
    for i, c in enumerate(recipe.k_monomial):
        if c:
            vec_add_scaled(cartan, cb.h(i), c * rs.symmetrizers[i])
    assert span.contains(cartan)
    # counting: E-generators + the K-monomial match the classical span
    assert len(recipe.generators) + 1 == len(gens)
    # and the classical limits plus the Cartan element regenerate the span
    regen = FractionSpan()
    for lim in limits:
        regen.add(lim)
    regen.add(cartan)
    assert regen.rank() == len(gens)


def test_recipe_roundtrip():
    rs = rs_of("D", 4)
    recipe = builtin_recipe(rs, parse_root(rs, "L1+L2"))
    doc = serialize_recipe(recipe)
    back = parse_recipe(doc)
    assert serialize_recipe(back) == doc


def test_parse_recipe_errors():
    rs = rs_of("A", 2)
    doc = serialize_recipe(builtin_recipe(rs, parse_root(rs, "L1-L3")))
    bad = {**doc, "generators": [{"name": "X", "expr": {"qbr": [{"gen": 1}, {"gen": 2}, "q"]}}]}
    with pytest.raises(RecipeError) as err:
        parse_recipe(bad)
    assert "power" in str(err.value)
    bad = {**doc, "generators": [{"name": "X", "expr": {"gen": 9}}]}
    with pytest.raises(RecipeError) as err:
        parse_recipe(bad)
    assert "out of range" in str(err.value)
    zero = {
        **doc,
        "generators": [{"name": "Z", "expr": {"qbr": [{"gen": 1}, {"gen": 1}, 0]}}],
    }
    with pytest.raises(RecipeError) as err:
        parse_recipe(zero)
    assert "zero" in str(err.value)
    with pytest.raises(RecipeError) as err:
        parse_recipe({**doc, "k_monomial": [-1, -1]})
    assert "non-negative" in str(err.value)


def test_handwritten_a2_recipe_evaluates():
    doc = {
        "type": "A",
        "rank": 2,
        "beta": "L1-L3",
        "k_monomial": [1, 1],
        "generators": [
            {"name": "X1", "expr": {"gen": 1}},
            {"name": "X2", "expr": {"qbr": [{"gen": 1}, {"gen": 2}, 1]}},
            {"name": "D2", "expr": {"gen": 2}},
        ],
    }
    recipe = parse_recipe(doc)
    assert recipe.names() == ["X1", "X2", "D2"]


def test_e6_tables_load_and_expand():
    rs = rs_of("E", 6)
    table = load_e6_recipes(rs)
    assert len(table) == 36
    heuristic = [r for r in table.values() if r.power_assignment == "heuristic"]
    assert len(heuristic) == 36
    # the typo-flagged final row keeps the decomposition exponent vector
    big = parse_root(rs, "a1+2a2+2a3+3a4+2a5+a6")
    assert table[big.decomp].k_monomial == big.decomp
    assert "K2" in table[big.decomp].notes


def test_e6_recipes_evaluate_nonzero():
    rs = rs_of("E", 6)
    table = load_e6_recipes(rs)
    alg = UqBorel(rs, max_degree=16)
    for decomp, recipe in sorted(table.items()):
        for name, _, expr in recipe.generators:
            val = eval_bracket_expr(expr, alg, recipe.auxiliaries)
            assert not val.is_zero()


def test_e6_shortest_recipes_lift_classically():
    rs = rs_of("E", 6)
    cb = build_realization(rs)
    pi = build_r_matrix(cb)
    table = load_e6_recipes(rs)
    rows = sorted(table.values(), key=lambda r: (sum(r.beta.decomp), r.beta.decomp))
    for recipe in rows[:9]:  # the six simple-root rows plus three doubles
        gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(recipe.beta), pi))
        span = FractionSpan()
        for g in gens:
            span.add(g)
        for name, _, expr in recipe.generators:
            lim = classical_limit_expr(expr, cb, recipe.auxiliaries)
            assert lim and span.contains(lim)
        cartan = {}
        for i, c in enumerate(recipe.k_monomial):
            if c:
                vec_add_scaled(cartan, cb.h(i), c * rs.symmetrizers[i])
        assert span.contains(cartan)
