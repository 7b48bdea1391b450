import dataclasses
import gc
import json
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoiso import verify
from qcoiso.classical import FractionSpan, RealizationError, build_realization
from qcoiso.qfield import RF_ONE, RatFunc, parse_ratfunc
from qcoiso.linalg import solve_linear_combination
from qcoiso.recipes import Gen, QBr, GeneratorRecipe, RecipeError, builtin_recipe
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel
from qcoiso.verify import (
    _commutator_provably_nonzero,
    _fit_q1_constraints,
    builtin_identity,
    check_flatness,
    check_left_coideal,
    check_semiclassical,
    classical_limits,
    generated_dim,
    run_full_verification,
    solve_identity,
)
from algebra_helpers import (
    RevlexBorel,
    check_qcommute_closure,
    from_terms,
    reference_nf_components,
    reference_nf_word,
)
from tensor_oracles import tensor, tensor_nf_is_zero, tensor_sub

_RS = {}


def rs_of(series, rank):
    key = (series, rank)
    if key not in _RS:
        _RS[key] = build_root_system(CartanType(series, rank))
    return _RS[key]


def rf(s):
    return parse_ratfunc(s)


def _case(series, rank, lit, maxdeg=None):
    rs = rs_of(series, rank)
    beta = parse_root(rs, lit)
    recipe = builtin_recipe(rs, beta)
    cap = max((maxdeg or recipe.max_degree() + 2), 2 * recipe.max_degree())
    alg = UqBorel(rs, max_degree=cap)
    return rs, beta, recipe, alg


def test_coideal_single_generator_trivial():
    rs, beta, recipe, alg = _case("G", 2, "a2")
    outcomes = check_left_coideal(recipe, alg)
    assert all(o["pass"] for o in outcomes)


def test_coideal_a2_and_a3_pass():
    for series, rank, lit in [("A", 2, "L1-L3"), ("A", 3, "L1-L4")]:
        rs, beta, recipe, alg = _case(series, rank, lit)
        outcomes = check_left_coideal(recipe, alg)
        assert all(o["pass"] for o in outcomes), [o.get("witness") for o in outcomes if not o["pass"]]
        for o in outcomes:
            for cert in o["certificates"]:
                assert cert["residual_check"]


def test_coideal_delta_decomposition_matches_displayed_left_factors():
    # Delta(X_i) = 1 (x) X_i + sum_k X_k (x) [[K_1..K_k, E_{k+1}]_q ..., E_i]_q
    #            + X_i (x) K_1..K_i, up to ideal (x) U + U (x) ideal,
    # with X_k the length-k bracket chain.
    rs = rs_of("A", 4)
    alg = UqBorel(rs, max_degree=8)
    chains = [alg.gen(0)]
    for k in range(1, 4):
        chains.append(alg.q_bracket(chains[-1], alg.gen(k), 1))
    for i in range(1, 5):  # X_1 .. X_4
        x_i = chains[i - 1]
        diff = tensor_sub(alg.coproduct(x_i), tensor(alg.one(), x_i))
        for k in range(1, i):
            kmono = alg.k_monomial(tuple(1 if m < k else 0 for m in range(4)))
            rightestring = kmono
            for m in range(k, i):
                rightestring = alg.q_bracket(rightestring, alg.gen(m), 1)
            diff = tensor_sub(diff, tensor(chains[k - 1], rightestring))
        kfull = alg.k_monomial(tuple(1 if m < i else 0 for m in range(4)))
        diff = tensor_sub(diff, tensor(x_i, kfull))
        assert tensor_nf_is_zero(alg, diff)


def _plain_bracket_a3(good):
    """The A3 L1-L4 recipe with [E1,E2]_q replaced by the plain bracket: the
    same generator names and degrees, other values."""
    mutated = []
    for name, group, expr in good.generators:
        if name == "X2":
            expr = QBr(Gen(0), Gen(1), 0)
        elif name == "X3":
            expr = QBr(QBr(Gen(0), Gen(1), 0), Gen(2), 1)
        mutated.append((name, group, expr))
    return GeneratorRecipe(
        cartan_type=good.cartan_type,
        beta=good.beta,
        k_monomial=good.k_monomial,
        generators=mutated,
    )


def test_coideal_negative_control_a3():
    # replacing [E1,E2]_q by the plain bracket breaks the coideal property,
    # witnessed by a left coefficient proportional to E2 against K2 E1
    rs = rs_of("A", 3)
    bad = _plain_bracket_a3(builtin_recipe(rs, parse_root(rs, "L1-L4")))
    alg = UqBorel(rs, max_degree=8)
    outcomes = check_left_coideal(bad, alg)
    failing = {o["name"]: o for o in outcomes if not o["pass"]}
    assert "X2" in failing
    assert "K2 E1" in failing["X2"]["witness"]
    assert "E2" in failing["X2"]["witness"]


def _recorded_certificates(monkeypatch, check):
    """[(alg, target, coeffs, gens, result)] of every `_certify` call made by
    check (check_left_coideal or check_flatness) on A3 at L1-L4; the
    products a flatness pair hands in already formed are not recorded."""
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    calls = []
    certify = verify._certify

    def recording(alg, target, coeffs, gens, formed=None):
        result = certify(alg, target, coeffs, gens, formed)
        calls.append((alg, target, coeffs, gens, result))
        return result

    monkeypatch.setattr(verify, "_certify", recording)
    check(recipe, alg)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("check", [check_left_coideal, check_flatness], ids=["coideal", "flatness"])
def test_certify_rejects_a_scaled_coefficient(monkeypatch, check):
    # multiplying one coefficient of a passing certificate by q moves the
    # residual out of the ideal, which is the check that ties a certificate
    # to the algebra
    calls = _recorded_certificates(monkeypatch, check)
    passing = [c for c in calls if c[-1][0] and c[2]]
    assert passing
    for alg, target, coeffs, gens, _ in passing:
        label = min(coeffs)
        bad = {**coeffs, label: coeffs[label] * parse_ratfunc("q")}
        assert verify._certify(alg, target, bad, gens) == (
            False, {"ideal_part": "not in the ideal"}
        ), label


def test_product_spans_multiply_nothing(monkeypatch):
    # the targets are the coideal left coefficients of A3 at L1-L4 and the
    # commutators of its flatness pairs; each commutator is formed, as the
    # difference of its two products, before nc_mul is made to raise, and
    # then every span is built again, and every target solved again over it
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    solves, pairs, fits = [], [], []
    coefficients, pair_solve, fit = (
        verify._span_coefficients, verify._solve_flatness_pair, verify._fit_q1_constraints
    )

    def recording(alg, x, gens, spans):
        result = coefficients(alg, x, gens, spans)
        solves.append(((alg, x, gens), result))
        return result

    def recording_pair(alg, c_poly, formed, egens, relations):
        pairs.append((c_poly, egens))
        return pair_solve(alg, c_poly, formed, egens, relations)

    def recording_fit(particular, nullspace, degree_one):
        fits.append((particular, nullspace))
        return fit(particular, nullspace, degree_one)

    monkeypatch.setattr(verify, "_span_coefficients", recording)
    monkeypatch.setattr(verify, "_solve_flatness_pair", recording_pair)
    monkeypatch.setattr(verify, "_fit_q1_constraints", recording_fit)
    check_left_coideal(recipe, alg)
    check_flatness(recipe, alg)

    def refuse(self, a, b):
        raise AssertionError("the product-span solve multiplied a product out")

    monkeypatch.setattr(UqBorel, "nc_mul", refuse)
    assert solves and pairs and len(pairs) == len(fits)
    for args, result in solves:
        assert result is not None
        assert coefficients(*args, {}) == result
    # a commutator's expression read off the relations is its solve
    for (c_poly, egens), (particular, nullspace) in zip(pairs, fits):
        key = c_poly.multidegree()
        span = alg.product_span(egens, *key)
        assert span.nullrows == nullspace
        assert span.solve(alg.nf_components(c_poly).get(key, {})) == particular


@pytest.mark.parametrize(
    "series, rank, lit",
    [("A", 3, "L1-L4"), ("B", 3, "L1+L2"), ("C", 3, "2L1"), ("G", 2, "3a1+2a2")],
)
def test_flatness_pairs_read_off_the_product_relations(monkeypatch, series, rank, lit):
    # the particular solution and nullspace read off the relations of the
    # product span are those of a solve of the commutator's normal form over
    # the product normal forms
    rs, beta, recipe, alg = _case(series, rank, lit)
    egens = recipe.evaluate(alg)
    gen_map = dict(egens)
    fits = []
    fit = verify._fit_q1_constraints

    def recording_fit(particular, nullspace, degree_one):
        fits.append((particular, nullspace))
        return fit(particular, nullspace, degree_one)

    monkeypatch.setattr(verify, "_fit_q1_constraints", recording_fit)
    relations = {}
    for (a, ga), (b, gb) in combinations(egens, 2):
        formed = {f"{a}*{b}": alg.nc_mul(ga, gb), f"{b}*{a}": alg.nc_mul(gb, ga)}
        c_poly = formed[f"{a}*{b}"] - formed[f"{b}*{a}"]
        if not c_poly or c_poly.degree() > alg.max_degree:
            continue
        kexp, mu = c_poly.multidegree()
        nfs = {}
        templates = [
            (label, alg._product_nf(label, gen_map, nfs))
            for label in alg.generator_products(egens, kexp, mu)
        ]
        target = alg.nf_components(c_poly).get((kexp, mu), {})
        expected = solve_linear_combination(templates, target)
        assert expected[0] is not None
        verify._solve_flatness_pair(alg, c_poly, formed, egens, relations)
        assert fits.pop() == expected, (a, b)
    assert relations


@pytest.mark.parametrize("check", [check_left_coideal, check_flatness])
def test_each_product_span_is_built_once_per_check(monkeypatch, check):
    # a check lists and eliminates the products at a multidegree once,
    # however many of its targets have that multidegree; the coideal check
    # builds none for a component whose normal form is zero; the next check
    # starts afresh
    rs, beta, recipe, alg = _case("B", 3, "L1+L2")
    targets, built = [], []
    products = alg.generator_products
    coefficients, pair_solve = verify._span_coefficients, verify._solve_flatness_pair

    def listing(gens, kexp, mu):
        built.append((kexp, mu))
        return products(gens, kexp, mu)

    def solving(alg, x, gens, spans):
        targets.extend(alg.nf_components(x))
        return coefficients(alg, x, gens, spans)

    def pairing(alg, c_poly, formed, egens, relations):
        targets.append(c_poly.multidegree())
        return pair_solve(alg, c_poly, formed, egens, relations)

    monkeypatch.setattr(alg, "generator_products", listing)
    monkeypatch.setattr(verify, "_span_coefficients", solving)
    monkeypatch.setattr(verify, "_solve_flatness_pair", pairing)
    check(recipe, alg)
    assert sorted(built) == sorted(set(targets)) and len(built) < len(targets)
    first = list(built)
    check(recipe, alg)
    assert built == first + first


def _per_component_coefficients(alg, x, gens):
    """The reference for `_span_coefficients`: split x into its components,
    and solve the normal form of each, zero or not, against a product span
    of its multidegree."""
    coeffs = {}
    for (kexp, mu), comp in x.components().items():
        vec = next(iter(alg.nf_components(comp).values()), {})
        sol = alg.product_span(gens, kexp, mu).solve(vec)
        if sol is None:
            return None
        coeffs.update(sol)
    return coeffs


@pytest.mark.parametrize("series, rank, lit", [("A", 3, "L1-L4"), ("B", 3, "L1+L2")])
def test_span_coefficients_match_the_per_component_route(monkeypatch, series, rank, lit):
    # the coideal check's left coefficients, and each of them, the unit, a
    # simple root vector outside the span and zero, each plus a placed Serre
    # relation at a content of its own: a component whose normal form is zero
    rs, beta, recipe, alg = _case(series, rank, lit)
    targets = []
    coefficients = verify._span_coefficients

    def recording(alg, x, gens, spans):
        targets.append(x)
        return coefficients(alg, x, gens, spans)

    monkeypatch.setattr(verify, "_span_coefficients", recording)
    check_left_coideal(recipe, alg)
    gens = [("K", alg.k_monomial(recipe.k_monomial)), *recipe.evaluate(alg)]
    outside = next(
        e for e in map(alg.gen, range(rs.rank)) if _per_component_coefficients(alg, e, gens) is None
    )
    relation = alg.gen(0) * alg.serre_relations()[(1, 0)]
    assert relation and not alg.nf_components(relation)
    placed = [
        x + relation
        for x in [*targets, alg.one(), outside, alg.one() * 0]
        if relation.multidegree() not in x.components()
    ]
    assert len(placed) == len(targets) + 3
    results = []
    for x in targets + placed:
        spans = {}
        got = coefficients(alg, x, gens, spans)
        assert got == _per_component_coefficients(alg, x, gens)
        assert set(spans) <= set(alg.nf_components(x))
        results.append(got)
    assert None in results and {} in results and any(results)


def test_recipes_sharing_generator_names_share_no_spans():
    # the plain-bracket recipe names its generators as the built-in one
    # does, with the same degrees and other values: on one algebra, each
    # recipe's entries are those it gets on a fresh algebra
    rs = rs_of("A", 3)
    good = builtin_recipe(rs, parse_root(rs, "L1-L4"))
    recipes = (good, _plain_bracket_a3(good))

    def entries(recipe, alg):
        return check_left_coideal(recipe, alg), check_flatness(recipe, alg)

    shared = UqBorel(rs, max_degree=8)
    got = [entries(recipe, shared) for recipe in recipes]
    assert got == [entries(recipe, UqBorel(rs, max_degree=8)) for recipe in recipes]
    assert got[0] != got[1]


def _explicit_residuals(monkeypatch):
    """[(alg, residual, result)] of every `_ideal_part_certificate` call with
    an explicit ideal part made by the two checks on A3 at L1-L4."""
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    calls = []
    part = verify._ideal_part_certificate

    def recording(alg, residual):
        result = part(alg, residual)
        # the coideal check adds its right leg to the detail it is handed
        calls.append((alg, residual, (result[0], dict(result[1]))))
        return result

    monkeypatch.setattr(verify, "_ideal_part_certificate", recording)
    check_left_coideal(recipe, alg)
    check_flatness(recipe, alg)
    monkeypatch.undo()
    explicit = [call for call in calls if call[2][1]["ideal_part"] == "explicit"]
    assert explicit
    return explicit


def test_explicit_ideal_part_folds_nothing(monkeypatch):
    # at degree <= IDEAL_CERTIFICATE_DEGREE the certificate is solved first,
    # so a residual it witnesses is never folded to its normal form
    def refuse(x):
        raise AssertionError("an explicit residual was folded")

    for alg, residual, result in _explicit_residuals(monkeypatch):
        assert residual.degree() <= verify.IDEAL_CERTIFICATE_DEGREE
        assert result[0]
        monkeypatch.setattr(alg, "nf_components", refuse)
        assert verify._ideal_part_certificate(alg, residual) == result
        monkeypatch.undo()


def test_ideal_residual_without_certificate_is_not_a_pass(monkeypatch):
    # with no certificate the fold still tells "in the ideal" apart, and at
    # small degree that is a failed certificate, not a pass
    for alg, residual, _ in _explicit_residuals(monkeypatch):
        monkeypatch.setattr(alg, "ideal_membership", lambda x: None)
        assert verify._ideal_part_certificate(alg, residual) == (
            False, {"ideal_part": "normal form vanished but no certificate"}
        )
        monkeypatch.undo()
        outside = residual + alg.gen(0) * alg.gen(1)
        assert verify._ideal_part_certificate(alg, outside) == (
            False, {"ideal_part": "not in the ideal"}
        )


def test_flatness_a3_golden_pair():
    # the (X2, D3) commutator resolves to X3 plus an h-multiple of a product
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    flat = check_flatness(recipe, alg)
    entry = next(e for e in flat if {e["i"], e["j"]} == {"X2", "D3"})
    assert entry["verdict"] == "pass"
    assert entry["xprime"] in ("1*X3", "-1*X3")
    coeffs = entry["certificate"]["coefficients"]
    assert coeffs.get("X3") == "1"


def test_flatness_xj_pairs_vanish_at_one():
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    flat = check_flatness(recipe, alg)
    entry = next(e for e in flat if {e["i"], e["j"]} == {"X1", "X2"})
    assert entry["verdict"] == "pass"
    assert entry["xprime"] == "0"


def test_flatness_k_pairs_closed_form():
    rs, beta, recipe, alg = _case("A", 2, "L1-L3")
    flat = check_flatness(recipe, alg)
    kpairs = [e for e in flat if e["i"] == "K"]
    assert len(kpairs) == len(recipe.generators)
    for e in kpairs:
        assert e["verdict"] == "pass"
        assert e["certificate"]["residual_check"]


def test_flatness_semiclassical_consistency():
    for series, rank, lit in [("A", 2, "L1-L3"), ("C", 2, "2L1")]:
        rs, beta, recipe, alg = _case(series, rank, lit)
        flat = check_flatness(recipe, alg)
        assert all(e["verdict"] == "pass" for e in flat)
        cb = build_realization(rs)
        assert check_semiclassical(classical_limits(recipe, cb), flat, cb)


def _semiclassical_after(change):
    """check_semiclassical's verdict on the A2 L1-L3 flatness entries after
    change(entries by pair) has edited them."""
    rs, beta, recipe, alg = _case("A", 2, "L1-L3")
    flat = check_flatness(recipe, alg)
    change({(e["i"], e["j"]): e for e in flat})
    cb = build_realization(rs)
    return check_semiclassical(classical_limits(recipe, cb), flat, cb)


def _scale_degree_one(entries):
    coeffs = entries[("X1", "D2")]["certificate"]["coefficients"]
    coeffs["X2"] = (parse_ratfunc(coeffs["X2"]) * RatFunc.from_int(2)).render()


def _mark_inconclusive(entries):
    entries[("X1", "X2")]["verdict"] = "inconclusive"


def _shift_crossing_exponent(entries):
    entries[("K", "X2")]["certificate"]["crossing_exponent"] += 1


@pytest.mark.parametrize(
    "change", [_scale_degree_one, _mark_inconclusive, _shift_crossing_exponent]
)
def test_semiclassical_check_rejects_edited_entries(change):
    assert _semiclassical_after(lambda entries: None)
    assert not _semiclassical_after(change)


def test_semiclassical_mismatch_is_a_stage_error(monkeypatch):
    monkeypatch.setattr(verify, "check_semiclassical", lambda *args: False)
    rs = rs_of("A", 2)
    report = run_full_verification(rs, parse_root(rs, "L1-L3"))
    assert report.stage_error == "semiclassical specialization mismatch"
    assert report.verdict == "fail"


def test_flatness_entries_serialize_to_json():
    rs, beta, recipe, alg = _case("A", 2, "L1-L3")
    json.dumps(check_flatness(recipe, alg))


def test_coideal_entries_are_the_report_entries():
    # check_left_coideal returns the report's per-generator entries as they
    # are, passing or failing, and they serialize without a conversion
    rs, beta, recipe, alg = _case("A", 2, "L1-L3")
    entries = check_left_coideal(recipe, alg)
    json.dumps(entries)
    assert entries == run_full_verification(rs, beta).to_json()["coideal"]["per_generator"]
    assert all(e["pass"] and e["status"] == "pass" and "witness" not in e for e in entries)
    # A3 at L1-L4 with X2 = [E1, E2] and X3 = [[E1, E2], E3]_q: X2 fails
    rs = rs_of("A", 3)
    good = builtin_recipe(rs, parse_root(rs, "L1-L4"))
    swap = {"X2": QBr(Gen(0), Gen(1), 0), "X3": QBr(QBr(Gen(0), Gen(1), 0), Gen(2), 1)}
    bad = dataclasses.replace(
        good, generators=[(n, g, swap.get(n, e)) for n, g, e in good.generators]
    )
    entries = check_left_coideal(bad, UqBorel(rs, max_degree=2 * bad.max_degree()))
    json.dumps(entries)
    report = run_full_verification(rs, bad.beta, recipe=bad).to_json()
    assert entries == report["coideal"]["per_generator"]
    x2 = next(e for e in entries if e["name"] == "X2")
    assert x2["status"] == "fail" and x2["pass"] is False
    assert "K2 E1" in x2["witness"] and "E2" in x2["witness"]


@pytest.mark.parametrize(
    "kmono, error",
    [((1, 0), "K-monomial semiclassical element is outside the span"), ((2, 2), "")],
)
def test_k_monomial_outside_the_classical_span_fails(kmono, error):
    # the K-monomial's semiclassical element must lie in the classical span,
    # which for A2 L1-L3 holds the multiples of h1 + h2 only
    rs = rs_of("A", 2)
    beta = parse_root(rs, "L1-L3")
    recipe = dataclasses.replace(builtin_recipe(rs, beta), k_monomial=kmono)
    report = run_full_verification(rs, beta, recipe=recipe)
    assert report.stage_error == error
    assert report.verdict == ("fail" if error else "pass")


@pytest.mark.parametrize(
    "series, rank, lit, keep, generated",
    [
        ("A", 3, "L1-L4", {"X1"}, "2 of 6"),
        # their data rows list no generator for a2+a3+a4+a5
        ("E", 6, "a1+a2+a3+a4+a5", None, "9 of 10"),
        ("E", 6, "a2+a3+a4+a5+a6", None, "9 of 10"),
    ],
)
def test_limits_generating_a_proper_subalgebra_fail(series, rank, lit, keep, generated):
    # each limit lies in the classical subalgebra, but together with the
    # K-element they generate only part of it
    rs = rs_of(series, rank)
    beta = parse_root(rs, lit)
    recipe = builtin_recipe(rs, beta)
    if keep is not None:
        recipe = dataclasses.replace(
            recipe, generators=[g for g in recipe.generators if g[0] in keep]
        )
    report = run_full_verification(rs, beta, recipe=recipe)
    assert report.stage_error == f"classical limits generate {generated} dimensions"
    assert report.verdict == "fail"


def _closure_by_rounds(cb, vectors):
    """The Lie closure's dimension: bracket every pair of a basis, round
    after round, until a round adds nothing."""
    span = FractionSpan()
    basis = [v for v in vectors if span.add(v)]
    while True:
        new = [br for x in basis for y in basis
               if (br := cb.bracket(x, y)) and span.add(br)]
        if not new:
            return len(basis)
        basis += new


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("A", 3, "L1-L4"), ("B", 3, "L1+L2"), ("D", 4, "L1+L2"),
                        ("G", 2, "3a1+2a2")]), st.data())
def test_generated_dim_matches_closure_by_rounds(case, data):
    series, rank, lit = case
    rs = rs_of(series, rank)
    cb = build_realization(rs)
    limits = list(classical_limits(builtin_recipe(rs, parse_root(rs, lit)), cb).values())
    subset = data.draw(st.lists(st.sampled_from(limits), max_size=len(limits)))
    full = _closure_by_rounds(cb, subset)
    assert generated_dim(cb, subset, cb.dim) == full
    # a smaller bound may stop the count early, never short of the bound
    bound = data.draw(st.integers(1, full + 1))
    assert min(full, bound) <= generated_dim(cb, subset, bound) <= full


def test_fit_q1_clears_a_pole_with_the_saturated_nullspace():
    # X has a simple pole at q = 1 and X*Y must vanish there; the nullspace
    # direction X + X*Y, given twice (the copy is dropped in saturation),
    # clears the pole: particular - 2/(q-1) * (X + X*Y) = X
    particular = {"X": rf("(q+1)/(q-1)"), "X*Y": rf("2/(q-1)")}
    nullspace = [{"X": rf("q-1"), "X*Y": rf("q-1")}, {"X": rf("2"), "X*Y": rf("2")}]
    assert _fit_q1_constraints(particular, nullspace, {"X"}) == {"X": rf("1")}


def test_fit_q1_gives_none_for_a_pole_it_cannot_clear():
    particular = {"X": rf("(q+1)/(q-1)"), "X*Y": rf("2/(q-1)")}
    assert _fit_q1_constraints(particular, [{"X*Y": rf("1")}], {"X"}) is None
    assert _fit_q1_constraints(particular, [], {"X"}) is None


def _assert_golden_extends(name, golden):
    # with the commuting-pair padding the solution is unique, so the named
    # coefficients are forced to the classical table exactly
    target, templates, _ = builtin_identity(name)
    sol = solve_identity(target, templates)
    assert sol is not None and sol["residual_check"]
    assert sol["nullspace_dim"] == 0
    for label, value in golden.items():
        got = sol["coefficients"].get(label)
        if value:
            assert got == value.render(), (label, got, value.render())
        else:
            assert got is None


def test_solve_identity_ijkj_golden():
    _assert_golden_extends(
        "ijkj",
        {
            "a": rf("-1/(q+q^-1)"),
            "b": rf("q^2/(q+q^-1)"),
            "c": rf("1/(q+q^-1)"),
            "d": rf("-q^2/(q+q^-1)"),
        },
    )


def test_solve_identity_eiej_ekej_golden():
    _assert_golden_extends(
        "eiej-ekej",
        {
            "a": rf("-q^2/(q+q^-1)"),
            "b": rf("1/(q+q^-1)"),
            "c": rf("-1/(q+q^-1)"),
            "d": rf("q^2/(q+q^-1)"),
        },
    )


def test_solve_identity_so_odd_5term_golden():
    target, templates, meta = builtin_identity("so-odd-5term")
    sol = solve_identity(target, templates, ideal_mode=meta.get("ideal_mode", False))
    assert sol is not None and sol["residual_check"]
    den = "(q^4+q^2+1)"
    golden = {
        "a": rf("0"),
        "b": rf(f"-1/{den}"),
        "c": rf(f"q^2/{den}"),
        "d": rf(f"(q^4+q^2)/{den}"),
        "e": rf("q^2"),
        "f": rf(f"-(q^6+2*q^4+q^2+1)/{den}"),
        "a'": rf("1"),
        "b'": rf(f"-(q^6+q^4+2*q^2+1)/{den}"),
        "c'": rf(f"(q^4+q^2)/{den}"),
        "d'": rf(f"q^4/{den}"),
        "e'": rf("0"),
        "f'": rf(f"-q^6/{den}"),
        "g": rf("-1"),
        "h": rf("(1+q^2+q^4)/q^2"),
        "i": rf("-(1+q^2+q^4)/q^2"),
        "j": rf("1"),
    }
    golden = {k: v for k, v in golden.items() if v}
    # the golden vector solves the identity modulo the ambient relation span,
    # so it extends to a full solution by an ideal-template combination
    from qcoiso.linalg import solve_linear_combination

    alg = target.alg
    rest = target
    t_map = dict(templates)
    for label, c in golden.items():
        rest = rest - c * t_map[label]
    mu = target.multidegree()[1]
    pads = []
    for label, poly in alg.ideal_templates(mu):
        u, (i, j), v = label
        pads.append((f"pad:{u}:{i}{j}:{v}", dict(poly.terms)))
    coeffs, _ = solve_linear_combination(pads, dict(rest.terms))
    assert coeffs is not None


def test_solve_identity_g2_e2t():
    target, templates, meta = builtin_identity("g2-e2t")
    sol = solve_identity(target, templates)
    assert sol is not None and sol["residual_check"]
    assert sol["nullspace_dim"] >= 0


def test_qcommute_closure_examples():
    rs = rs_of("A", 3)
    alg = UqBorel(rs)
    e1, e2, e3 = (alg.gen(i) for i in range(3))
    b12 = alg.q_bracket(e1, e2, 1)
    assert check_qcommute_closure(alg, e1, b12, e3, -1, 0, 1) is True
    assert check_qcommute_closure(alg, e1, e1, e1, 0, 0, 0) is True
    # unsatisfied hypothesis is reported, not treated as failure
    assert check_qcommute_closure(alg, e1, e2, e3, 0, 0, 0) == "hypothesis-failed"


def test_qcommute_closure_random_instances():
    rs = rs_of("A", 3)
    alg = UqBorel(rs)
    rng = random.Random(2024)
    e = [alg.gen(i) for i in range(3)]
    cands = {
        "E1": (e[0], {"E3": 0, "X2": -1}),
        "E3": (e[2], {"E1": 0, "D2": -1}),
    }
    elements = {
        "E1": e[0],
        "E3": e[2],
        "X2": alg.q_bracket(e[0], e[1], 1),
        "D2": alg.q_bracket(e[2], e[1], 1),
    }
    checked = 0
    for _ in range(60):
        a_name = rng.choice(list(cands))
        a, known = cands[a_name]
        b_name, c_name = rng.sample(list(known), 2)
        pa, pb = known[b_name], known[c_name]
        pc = rng.randint(-2, 2)
        res = check_qcommute_closure(
            alg, a, elements[b_name], elements[c_name], pa, pb, pc
        )
        assert res is True
        checked += 1
    assert checked == 60


def test_run_full_verification_a2():
    rs = rs_of("A", 2)
    report = run_full_verification(rs, parse_root(rs, "L1-L3"))
    assert report.verdict == "pass"
    js = report.to_json()
    assert js["admissible"] is True
    assert js["classical"]["coisotropic"] is True
    assert js["classical"]["dim"] == 4
    assert js["degrees_used"] == 4
    assert js["verdict"] == "pass"


# one algebra per type, shared by the examples, so its tables fill up as
# they go; every element stays within degree 6
_FOLD_ALGS = {}
_FOLD_COEFFS = ["1", "-1", "q", "q^-2", "q + q^-1", "2*q^3 - 1"]


@st.composite
def _fold_elements(draw):
    """(algebra, element) on A3, B3, C3 or G2: raw terms that mix components,
    plus parts whose normal form is zero, a placed Serre relation K^k u R v
    and a word minus its own normal form, alone in a component or not."""
    series, rank = draw(st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("G", 2)]))
    if (series, rank) not in _FOLD_ALGS:
        _FOLD_ALGS[series, rank] = UqBorel(rs_of(series, rank), max_degree=6)
    alg = _FOLD_ALGS[series, rank]
    coeff = st.sampled_from(_FOLD_COEFFS).map(parse_ratfunc)
    kexp = st.tuples(*[st.integers(0, 1)] * rank)

    def words(max_size):
        return st.lists(st.integers(0, rank - 1), max_size=max_size).map(tuple)

    x = from_terms(alg, draw(st.lists(st.tuples(kexp, words(6), coeff), max_size=6)))
    rel = alg.serre_relations()[draw(st.sampled_from(sorted(alg.serre_relations())))]
    u = draw(words(6 - rel.degree()))
    v = draw(words(6 - rel.degree() - len(u)))
    left = from_terms(alg, [(draw(kexp), u, RF_ONE)])
    right = from_terms(alg, [((0,) * rank, v, RF_ONE)])
    x = x + draw(coeff) * (left * rel * right)
    k, w = draw(kexp), draw(words(6))
    own = from_terms(alg, [(k, b, c) for b, c in reference_nf_word(alg, w).items()])
    return alg, x + draw(coeff) * (from_terms(alg, [(k, w, RF_ONE)]) - own)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fold_elements())
def test_vector_fold_matches_the_word_by_word_fold(case):
    """`nf_components` folds all the words of a component as one vector of
    states, merging equal suffixes; it equals the sum of the words' own
    folds, components folding to zero are left out, and `nf_word` equals the
    fold of its word.  Both return fresh vectors, so clearing one changes
    no later result."""
    alg, x = case
    expected = reference_nf_components(alg, x)
    got = alg.nf_components(x)
    assert got == expected
    for vec in got.values():
        vec.clear()
    assert alg.nf_components(x) == expected
    for _, word in x.terms:
        vec = alg.nf_word(word)
        assert vec == reference_nf_word(alg, word)
        vec.clear()
        assert alg.nf_word(word) == reference_nf_word(alg, word)


def test_algebra_keeps_only_the_named_state(monkeypatch):
    """After a full verification an algebra holds its configuration, the
    normal-form tables, the interned coefficients, the ideal-basis labels and
    the Serre relations, and nothing else: a new memo on the algebra has to
    be added to this list.  The product spans and labels are dropped with
    the check that built them."""
    algs = []
    init = UqBorel.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        algs.append(self)

    monkeypatch.setattr(UqBorel, "__init__", tracking)
    rs = rs_of("B", 3)
    assert run_full_verification(rs, parse_root(rs, "L1+L2")).verdict == "pass"
    assert algs
    for alg in algs:
        assert set(vars(alg)) == {
            "rs", "rank", "max_degree",
            "_tables", "_coeffs", "_ideal_bases", "_serre", "_generating",
        }
        assert alg._tables and alg._coeffs and alg._ideal_bases


def test_flatness_certificates_reuse_the_pair_products(monkeypatch):
    """A flatness pair hands the two products it formed for its commutator
    to `_certify`, which multiplies out only the other products its
    certificate names; the entries equal those made with every named product
    multiplied out again."""
    rs, beta, recipe, alg = _case("B", 3, "L1+L2")
    pairs = []  # [[the pair's own two labels, labels multiplied out, result]]
    solve, label_product = verify._solve_flatness_pair, alg.label_product

    def solving(alg, c_poly, formed, egens, relations):
        pairs.append([set(formed), [], None])
        pairs[-1][2] = solve(alg, c_poly, formed, egens, relations)
        return pairs[-1][2]

    def recording(label, gen_map):
        pairs[-1][1].append(label)
        return label_product(label, gen_map)

    monkeypatch.setattr(verify, "_solve_flatness_pair", solving)
    monkeypatch.setattr(alg, "label_product", recording)
    entries = check_flatness(recipe, alg)
    assert pairs and all(not own & set(multiplied) for own, multiplied, _ in pairs)
    # the check is not vacuous: some certificate names its pair's own products
    assert any(
        own & set(result["certificate"]["coefficients"])
        for own, _, result in pairs
        if "certificate" in result
    )
    certify = verify._certify
    monkeypatch.setattr(
        verify,
        "_certify",
        lambda alg, target, coeffs, gens, formed=None: certify(alg, target, coeffs, gens),
    )
    assert check_flatness(recipe, UqBorel(rs, max_degree=alg.max_degree)) == entries


def test_finished_algebra_is_freed_without_gc(monkeypatch):
    """A run's algebra, with its tables and memos, is freed by reference
    counting when the run ends, not at the next full garbage collection.
    The memos of ideal bases and tables are held past the run: they are
    filled, and holding them does not keep the algebra alive."""
    refs, memos = [], []
    init = UqBorel.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        memos.append((self._ideal_bases, self._tables))

    monkeypatch.setattr(UqBorel, "__init__", tracking)
    rs = rs_of("A", 2)
    gc.disable()
    try:
        assert run_full_verification(rs, parse_root(rs, "L1-L3")).verdict == "pass"
        assert refs and all(ref() is None for ref in refs)
        assert memos and all(bases and tables for bases, tables in memos)
    finally:
        gc.enable()


def test_realization_error_is_a_stage_error(monkeypatch):
    def refuse(rs):
        raise RealizationError("no table for this type")

    monkeypatch.setattr(verify, "build_realization", refuse)
    rs = rs_of("A", 2)
    report = run_full_verification(rs, parse_root(rs, "L1-L3"))
    assert report.stage_error == "classical realization: no table for this type"
    assert report.verdict == "fail"


def test_programming_error_in_the_realization_propagates(monkeypatch):
    # only a refused realization is a verdict; any other error is a bug and
    # must surface as one, not read as "fail"
    def broken(rs):
        raise KeyError((1, 0))

    monkeypatch.setattr(verify, "build_realization", broken)
    rs = rs_of("A", 2)
    with pytest.raises(KeyError):
        run_full_verification(rs, parse_root(rs, "L1-L3"))


@pytest.mark.parametrize(
    "series, rank, lit", [("A", 3, "L1-L4"), ("G", 2, "3a1+2a2"), ("E", 6, "a1+a3+a4")]
)
def test_no_check_asks_a_table_above_the_cap(monkeypatch, series, rank, lit):
    # a generator above the cap is unverified and so is a pair whose
    # commutator is, so at every cap up to the row's own neither check asks
    # a table above it and the DegreeOverflowError handler of
    # run_full_verification is never reached; the verdict goes from
    # inconclusive to pass as the cap rises
    rs = rs_of(series, rank)
    beta = parse_root(rs, lit)
    asked = []
    table = UqBorel.table

    def recording(self, mu):
        asked.append((sum(mu), self.max_degree))
        return table(self, mu)

    monkeypatch.setattr(UqBorel, "table", recording)
    verdicts = []
    for cap in range(1, run_full_verification(rs, beta).degrees_used + 1):
        asked.clear()
        report = run_full_verification(rs, beta, degree_cap=cap)
        assert asked and all(degree <= top for degree, top in asked), cap
        assert not report.stage_error, cap
        verdicts.append(report.verdict)
    passing = verdicts.index("pass")
    assert set(verdicts[:passing]) == {"inconclusive"} and set(verdicts[passing:]) == {"pass"}


def test_recipe_error_is_a_stage_error(monkeypatch):
    def refuse(rs, beta):
        raise RecipeError("no built-in recipe for this root")

    monkeypatch.setattr(verify, "builtin_recipe", refuse)
    rs = rs_of("A", 2)
    report = run_full_verification(rs, parse_root(rs, "L1-L3"))
    assert report.stage_error == "recipe: no built-in recipe for this root"
    assert report.verdict == "fail"


def test_programming_error_in_a_recipe_builder_propagates(monkeypatch):
    # only a refused recipe is a verdict; a failing builder is a bug
    def broken(rs, beta):
        raise KeyError("a2")

    monkeypatch.setattr(verify, "builtin_recipe", broken)
    rs = rs_of("A", 2)
    with pytest.raises(KeyError):
        run_full_verification(rs, parse_root(rs, "L1-L3"))


def test_run_full_verification_inadmissible():
    rs = rs_of("C", 2)
    report = run_full_verification(rs, parse_root(rs, "L1-L2"))
    assert report.verdict == "fail"
    assert report.admissible is False


def test_run_full_verification_g2_trivial():
    rs = rs_of("G", 2)
    report = run_full_verification(rs, parse_root(rs, "a2"))
    assert report.verdict == "pass"
    assert report.degrees_used == 3  # d + 2 with d = 1


def test_coideal_basis_change_invariance():
    # verdicts do not depend on the word order used for the right-leg basis
    rs = rs_of("A", 2)
    beta = parse_root(rs, "L1-L3")
    recipe = builtin_recipe(rs, beta)
    for cls in (UqBorel, RevlexBorel):
        alg = cls(rs, max_degree=6)
        outcomes = check_left_coideal(recipe, alg)
        assert all(o["pass"] for o in outcomes)
        flat = check_flatness(recipe, alg)
        assert all(e["verdict"] == "pass" for e in flat)


@pytest.mark.parametrize(
    "exprs, cap, verdict, note, formed",
    [
        # E1 with [E1,E1]_q: leading words commute and the commutator is zero
        ((Gen(0), QBr(Gen(0), Gen(0), 1)), 2, "pass", None, True),
        # E1 with E2: the leading words E1E2 != E2E1 decide the pair
        (
            (Gen(0), Gen(1)),
            1,
            "unverified",
            "pair degree 2 exceeds the configured degree cap 1",
            False,
        ),
        # both leading words are E2E1, yet the commutator is nonzero
        (
            (QBr(Gen(1), Gen(0), 1), QBr(Gen(1), Gen(0), 0)),
            3,
            "unverified",
            "pair degree 4 exceeds the configured degree cap 3",
            True,
        ),
    ],
    ids=["zero-commutator", "leading-words-decide", "commuting-leading-words"],
)
def test_flatness_over_cap_pair(monkeypatch, exprs, cap, verdict, note, formed):
    rs = rs_of("A", 2)
    recipe = GeneratorRecipe(
        cartan_type=rs.type,
        beta=parse_root(rs, "L1-L3"),
        k_monomial=(1, 1),
        generators=[("P", "X", exprs[0]), ("Q", "X", exprs[1])],
    )
    alg = UqBorel(rs, max_degree=cap)
    gens = [g for _, g in recipe.evaluate(alg)]
    calls = []
    nc_mul = alg.nc_mul

    def counting(a, b):
        calls.append((a, b))
        return nc_mul(a, b)

    monkeypatch.setattr(alg, "nc_mul", counting)
    entry = next(e for e in check_flatness(recipe, alg) if e["i"] == "P")
    assert entry["verdict"] == verdict
    if note is None:
        assert "note" not in entry
        assert entry["certificate"]["commutator"] == "zero"
    else:
        assert entry["note"] == note
    pair_calls = [c for c in calls if list(c) in (gens, gens[::-1])]
    assert bool(pair_calls) == formed


@st.composite
def _multihomogeneous_pair(draw):
    alg = UqBorel(rs_of(draw(st.sampled_from(["A", "B"])), 2))

    def element():
        letters = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            kexp = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
            word = draw(st.permutations(letters))
            coeff = RatFunc.q_power(draw(st.integers(-2, 2))) * RatFunc.from_int(
                draw(st.sampled_from([-2, -1, 1, 2]))
            )
            terms.append((kexp, word, coeff))
        return from_terms(alg, terms)

    return alg, element(), element()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_multihomogeneous_pair())
def test_leading_terms_prove_commutator_nonzero(pair):
    alg, a, b = pair
    if _commutator_provably_nonzero(a, b):
        assert alg.nc_mul(a, b) - alg.nc_mul(b, a)
