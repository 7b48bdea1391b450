"""Contract details not covered by the module-level suites."""

import random
from fractions import Fraction

from qcoiso.classical import ad_bivector, bivector, build_r_matrix, build_realization
from qcoiso.qfield import parse_ratfunc
from qcoiso.recipes import builtin_recipe
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel, q_bracket
from qcoiso.verify import check_flatness, run_full_verification


def test_fixed_grammar_parse_example():
    assert parse_ratfunc("-(q^2)/(q^2+1)*q").render() == "-q^3/(q^2+1)"


def test_ad_bivector_antisymmetry():
    rs = build_root_system(CartanType("B", 2))
    cb = build_realization(rs)
    rng = random.Random(31)
    for _ in range(20):
        i, j = rng.sample(range(cb.dim), 2)
        x = {rng.randrange(cb.dim): Fraction(rng.randint(-2, 2))}
        x = {k: v for k, v in x.items() if v}
        fwd = ad_bivector(cb, x, bivector([(i, j, Fraction(1))]))
        rev = ad_bivector(cb, x, bivector([(j, i, Fraction(1))]))
        assert fwd == {k: -v for k, v in rev.items()}


def test_subspace_membership_contract():
    rs = build_root_system(CartanType("A", 3))
    alg = UqBorel(rs, max_degree=8)
    recipe = builtin_recipe(rs, parse_root(rs, "L1-L4"))
    gens = [("K", alg.k_monomial(recipe.k_monomial))] + recipe.evaluate(alg)
    by = dict(gens)

    def residual(x, coeffs):
        return x - alg.combination(coeffs, {label: alg.label_product(label, by) for label in coeffs})

    # a product of generators carries the trivial certificate
    x = alg.nc_mul(by["X1"], by["X2"])
    coeffs, _ = alg.subspace_membership(x, gens)
    assert coeffs == {"X1*X2": parse_ratfunc("1")}
    assert residual(x, coeffs).is_zero()
    # a generator outside the span solves to none
    e2 = alg.gen(1)
    assert alg.subspace_membership(e2, gens)[0] is None
    # the unit is the empty product
    coeffs, _ = alg.subspace_membership(alg.one(), gens)
    assert coeffs == {"1": parse_ratfunc("1")} and residual(alg.one(), coeffs).is_zero()


def test_chain_commutator_alternating_form():
    # [X_k, D_{k+1}]_q collapses to +/- X_n plus (1-q)-weighted products,
    # so the plain commutator resolves with X' = +/- X_n and every product
    # coefficient vanishing at q = 1
    rs = build_root_system(CartanType("A", 3))
    recipe = builtin_recipe(rs, parse_root(rs, "L1-L4"))
    alg = UqBorel(rs, max_degree=6)
    flat = check_flatness(recipe, alg)
    entry = next(e for e in flat if {e["i"], e["j"]} == {"X1", "D2"})
    assert entry["verdict"] == "pass"
    assert entry["xprime"].lstrip("-").endswith("X3")
    for label, value in entry["certificate"]["coefficients"].items():
        if "*" in label:
            assert parse_ratfunc(value).eval_at_one() == 0


def test_even_orthogonal_degenerate_j():
    # for beta = L1 + L_{n-1} the spin-node element is the bare generator;
    # the bracket with an empty connecting chain would vanish classically
    rs = build_root_system(CartanType("D", 4))
    recipe = builtin_recipe(rs, parse_root(rs, "L1+L3"))
    by_name = {n: e for n, _, e in recipe.generators}
    from qcoiso.recipes import Gen

    assert by_name["B4"] == Gen(3)
    report = run_full_verification(rs, parse_root(rs, "L1+L3"))
    assert report.verdict == "pass"


def test_report_schema_fields():
    rs = build_root_system(CartanType("A", 2))
    report = run_full_verification(rs, parse_root(rs, "L1-L3"))
    js = report.to_json()
    assert set(js) >= {
        "case",
        "admissible",
        "classical",
        "coideal",
        "flatness",
        "degrees_used",
        "verdict",
        "timings",
    }
    assert set(js["case"]) == {"type", "rank", "beta"}
    for g in js["coideal"]["per_generator"]:
        assert {"name", "pass", "certificates"} <= set(g)
    for p in js["flatness"]["per_pair"]:
        assert {"i", "j", "verdict"} <= set(p)
