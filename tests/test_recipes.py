import hashlib
import json

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
    GeneratorRecipe,
    QBr,
    RecipeError,
    Ref,
    builtin_recipe,
    classical_limit_expr,
    eval_bracket_expr,
    load_e6_recipes,
    parse_recipe,
    serialize_recipe,
)
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel

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
    assert eval_bracket_expr(expr, alg) == alg.q_bracket(alg.gen(0), alg.gen(1), 1)


def test_undefined_auxiliary_raises_recipe_error_in_every_walk():
    rs = rs_of("A", 2)
    expr = QBr(Gen(0), Ref("T"), 1)
    recipe = GeneratorRecipe(rs.type, rs.simple_roots[0], (1, 0), [("X", "(a)", expr)])
    walks = [
        lambda: eval_bracket_expr(expr, UqBorel(rs), {}),
        lambda: classical_limit_expr(expr, build_realization(rs)),
        recipe.max_degree,
    ]
    for walk in walks:
        with pytest.raises(RecipeError, match="undefined auxiliary 'T'"):
            walk()


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
    assert all(v for _, v in values)


@pytest.mark.parametrize("series,rank,lit", ACCEPTANCE_CASES)
def test_builtin_recipes_lift_classical_generators(series, rank, lit):
    rs = rs_of(series, rank)
    _assert_limits_form_a_basis(rs, build_realization(rs), parse_root(rs, lit))


@pytest.mark.parametrize(
    "series,rank", [("B", n) for n in range(3, 8)] + [("D", n) for n in range(4, 8)]
)
def test_orthogonal_l1_plus_lj_limits_form_a_basis(series, rank):
    # every L1+Lj with 2 <= j <= n-1; on B with j <= n-2 the limits reach
    # the span only when the (d) chain passes through node n-1
    rs = rs_of(series, rank)
    cb = build_realization(rs)
    for j in range(2, rank):
        _assert_limits_form_a_basis(rs, cb, parse_root(rs, f"L1+L{j}"))


def _assert_limits_form_a_basis(rs, cb, beta):
    """The recipe's classical limits plus its Cartan element form a basis of
    the classical span of beta."""
    recipe = builtin_recipe(rs, beta)
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
    assert len(regen.rows) == len(gens)


# sha256 of json.dumps([[root, serialize_recipe(recipe) or the RecipeError
# text] for every positive root], sort_keys=True); a change to any built-in
# recipe, generator name or error message changes its digest
BUILTIN_RECIPE_DIGESTS = {
    ("A", 1): "afc5f755f31d1c217f738267c443370d0f41934c2b8c9bdb9b967fd640457d87",
    ("A", 2): "26a6bcb716c53e1ae03b705ba912c56be5605fd6cdcc6dbfb132cf7110662b70",
    ("A", 3): "bd90a3555799a372e544b603e4e6f0bc200e8ae29b80fa7798310e1f61510848",
    ("A", 4): "317f1dcc96941696551783dcdcd4ef245968fbb8aede55e25dfcc649e7906ce4",
    ("A", 5): "491bba0ee07aa4b7d195e7bfeaee9a87d4df47cb3f70dcc00cc9947fdf3a60dd",
    ("A", 6): "dcc62c5abdd779981a3defb9ede8aca409cac5eda13df0a620d10608a5512f1d",
    ("A", 7): "7ab154f00b7bf20c188f27b947ce7237a7434d3dafd989fa6d32a165dc5c87ae",
    ("B", 2): "62ee93be37680228a652645690ebe63aed620b7777e65d0452af2df4059fa09d",
    ("B", 3): "8389739a128c9b79da13ed15e61f167a0ce7894346e4e6e4be124e49ea384e1c",
    ("B", 4): "26597fc0c928f3293c9ad192565fe024c2937db48eaad4e0075098d8b48436d5",
    ("B", 5): "82cc62a57d396fca973fd74aef6663e30b8f8cdcb7820316b33385022b5b6ffc",
    ("B", 6): "1d43055ca80a3d6391de52dfba479dbdbafc8acb83bc1449d478afb879a689ee",
    ("B", 7): "b638bc2affbe3b240dd50df2941c129042fd1ddbbd9c7cad30ab72701a301f62",
    ("C", 2): "fee600af783bbb03be6356b3775415e2f9800c169a407a8f0fdd4ffee54f2fdc",
    ("C", 3): "5660257700a1ce152ab6cec85e873c14cc1f949bb1b2619f1b68706e4c3cb339",
    ("C", 4): "c255740ccabb3444b5dd749b455fbdb337a43603ea86fbf49c503a78afcac098",
    ("C", 5): "b6bef162c6e73cf72192d3089cee98a6ed2733aa4e350e40524724616b06e974",
    ("C", 6): "f97b2d7bd06e23304d6a77f098c69506b2059992620d729f9085091c02fcad4f",
    ("C", 7): "78f5eb310f4caf9f3e3b6a5707efcf6b0cabce84bb016b4e9442ade966fb3d33",
    ("D", 3): "20494edd7a8887d676ce0b490892d7f5d022a753dbee04125533d6dc69acecab",
    ("D", 4): "fb94b05042b719a9345992662b3ba7ae086ae1d32052e92c2353ab125d9ac71e",
    ("D", 5): "d8730163bf16d7cba1fa613c34b12e77a4abe9e96290666e9b3cbad59ceb6940",
    ("D", 6): "e96b10a02881f17529e03690de1cad87c10b95624608788fb2638e1ce9762e01",
    ("D", 7): "06023cebf5975f5ab44c40e4d76b2b95ca154f850ba59dff22646cbc32c30b75",
    ("D", 8): "0f3437a9ae09d7f2e6f3aaa142eda5e17c816d0504066c5ef5a09fba936c5024",
    ("G", 2): "43c4cef54b26226243df8869647c5b08fbfaf1dd94a00a5477c4770847945464",
    ("E", 6): "124d6d96b722beaf5e4a3dea36a2a972e5aaceefa85e545fb89897513ca7c00f",
}


@pytest.mark.parametrize("series,rank", sorted(BUILTIN_RECIPE_DIGESTS))
def test_builtin_recipes_pinned(series, rank):
    rs = rs_of(series, rank)
    rows = []
    for r in rs.positive_roots:
        try:
            rows.append([rs.render_root(r), serialize_recipe(builtin_recipe(rs, r))])
        except RecipeError as exc:
            rows.append([rs.render_root(r), str(exc)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == BUILTIN_RECIPE_DIGESTS[(series, rank)]


def test_recipe_roundtrip():
    rs = rs_of("D", 4)
    recipe = builtin_recipe(rs, parse_root(rs, "L1+L2"))
    doc = serialize_recipe(recipe)
    back = parse_recipe(doc)
    assert serialize_recipe(back) == doc


@pytest.mark.parametrize("beta", ["L4-L1", "-a1", "-a1-a2-a3", "-L1+L2"])
def test_parse_recipe_rejects_negative_beta(beta):
    rs = rs_of("A", 3)
    doc = serialize_recipe(builtin_recipe(rs, parse_root(rs, "L1-L4")))
    with pytest.raises(RecipeError) as err:
        parse_recipe({**doc, "beta": beta})
    assert str(err.value).startswith("bad beta: ")
    assert "negative root" in str(err.value) and repr(beta) in str(err.value)


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
    # generator names must not collide with the labels of generator products
    a3 = serialize_recipe(builtin_recipe(rs_of("A", 3), parse_root(rs_of("A", 3), "L1-L4")))
    for name, reason in [("K", "product label"), ("1", "product label"),
                         ("X1*X2", "product label"), ("", "product label"),
                         ("X1", "duplicate")]:
        gens = [dict(g, name=name) if g["name"] == "D2" else g for g in a3["generators"]]
        with pytest.raises(RecipeError) as err:
            parse_recipe({**a3, "generators": gens})
        assert reason in str(err.value) and repr(name) in str(err.value)


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


def test_e6_recipes_evaluate_nonzero():
    rs = rs_of("E", 6)
    table = load_e6_recipes(rs)
    alg = UqBorel(rs, max_degree=16)
    for decomp, recipe in sorted(table.items()):
        for name, _, expr in recipe.generators:
            val = eval_bracket_expr(expr, alg, recipe.auxiliaries)
            assert val


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
