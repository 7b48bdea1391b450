import dataclasses
import gc
import json
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoiso import verify
from qcoiso.classical import build_realization
from qcoiso.qfield import RatFunc, parse_ratfunc
from qcoiso.recipes import Gen, QBr, GeneratorRecipe, builtin_recipe
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
    run_full_verification,
    solve_identity,
)
from algebra_helpers import RevlexBorel, check_qcommute_closure, from_terms
from tensor_oracles import tensor_nf_is_zero

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
    from qcoiso.uqalg import TensorElem

    def tensor(a, b):
        out = {}
        for t1, c1 in a.terms.items():
            for t2, c2 in b.terms.items():
                out[(t1, t2)] = c1 * c2
        return TensorElem(alg, out)

    for i in range(1, 5):  # X_1 .. X_4
        x_i = chains[i - 1]
        rhs = tensor(alg.one(), x_i)
        for k in range(1, i):
            kmono = alg.k_monomial(tuple(1 if m < k else 0 for m in range(4)))
            rightestring = kmono
            for m in range(k, i):
                rightestring = alg.q_bracket(rightestring, alg.gen(m), 1)
            rhs = rhs + tensor(chains[k - 1], rightestring)
        kfull = alg.k_monomial(tuple(1 if m < i else 0 for m in range(4)))
        rhs = rhs + tensor(x_i, kfull)
        diff = alg.coproduct(x_i) - rhs
        assert tensor_nf_is_zero(alg, diff)


def test_coideal_negative_control_a3():
    # replacing [E1,E2]_q by the plain bracket breaks the coideal property,
    # witnessed by a left coefficient proportional to E2 against K2 E1
    rs = rs_of("A", 3)
    beta = parse_root(rs, "L1-L4")
    good = builtin_recipe(rs, beta)
    mutated = []
    for name, group, expr in good.generators:
        if name == "X2":
            expr = QBr(Gen(0), Gen(1), 0)
        elif name == "X3":
            expr = QBr(QBr(Gen(0), Gen(1), 0), Gen(2), 1)
        mutated.append((name, group, expr))
    bad = GeneratorRecipe(
        cartan_type=good.cartan_type,
        beta=good.beta,
        k_monomial=good.k_monomial,
        generators=mutated,
    )
    alg = UqBorel(rs, max_degree=8)
    outcomes = check_left_coideal(bad, alg)
    failing = {o["name"]: o for o in outcomes if not o["pass"]}
    assert "X2" in failing
    assert "K2 E1" in failing["X2"]["witness"]
    assert "E2" in failing["X2"]["witness"]


def _recorded_certificates(monkeypatch, check):
    """[(alg, target, coeffs, gens, result)] of every `_certify` call made by
    check (check_left_coideal or check_flatness) on A3 at L1-L4."""
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    calls = []
    certify = verify._certify

    def recording(*args):
        result = certify(*args)
        calls.append((*args, result))
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


def test_subspace_membership_multiplies_nothing(monkeypatch):
    # the targets are the coideal left coefficients and the commutators of
    # A3 at L1-L4, formed before nc_mul is made to raise
    rs, beta, recipe, alg = _case("A", 3, "L1-L4")
    solves = []
    solve = alg.subspace_membership

    def recording(x, gens, min_factors=0):
        result = solve(x, gens, min_factors)
        solves.append(((x, gens, min_factors), result))
        return result

    monkeypatch.setattr(alg, "subspace_membership", recording)
    check_left_coideal(recipe, alg)
    check_flatness(recipe, alg)

    def refuse(self, a, b):
        raise AssertionError("the product-span solve multiplied a product out")

    monkeypatch.setattr(UqBorel, "nc_mul", refuse)
    assert {args[2] for args, _ in solves} == {0, 1}
    for args, result in solves:
        assert result[0] is not None
        assert solve(*args) == result


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
    assert sol is not None and sol.residual_check
    assert sol.detail["nullspace_dim"] == 0
    for label, value in golden.items():
        got = sol.coefficients.get(label)
        if value:
            assert got == value, (label, got.render() if got else None, value.render())
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
    assert sol is not None and sol.residual_check
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
    assert sol is not None and sol.residual_check
    assert sol.detail["nullspace_dim"] >= 0


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


def test_each_word_folds_from_empty_once(monkeypatch):
    """The algebra memoizes word normal forms across the whole run, so no
    word is folded from the empty word twice, and no caller has mutated a
    shared memo vector by the end.  Table builds fold relation words into
    their rows and are not counted."""
    fold, build = UqBorel._fold_word, UqBorel._build_table
    from_empty = Counter()
    algs = {}
    building = []

    def counting(self, b, letters, start_mu):
        algs[id(self)] = self
        if not b and not building:
            from_empty[id(self), tuple(letters)] += 1
        return fold(self, b, letters, start_mu)

    def flagged(self, mu):
        building.append(mu)
        try:
            return build(self, mu)
        finally:
            building.pop()

    monkeypatch.setattr(UqBorel, "_fold_word", counting)
    monkeypatch.setattr(UqBorel, "_build_table", flagged)
    rs = rs_of("B", 3)
    report = run_full_verification(rs, parse_root(rs, "L1+L2"))
    assert report.verdict == "pass"
    assert from_empty and max(from_empty.values()) == 1
    # every memoized normal form, including those filled by products, still
    # equals a fresh fold of its word
    for alg in algs.values():
        assert alg._nf
        for word in list(alg._nf):
            assert alg.nf_word(word) == fold(alg, (), word, (0,) * alg.rank)


def test_finished_algebra_is_freed_without_gc(monkeypatch):
    """A run's algebra, with its tables and memos, is freed by reference
    counting when the run ends, not at the next full garbage collection.
    The memos of ideal bases and product labels are held past the run: they
    are filled, and holding them does not keep the algebra alive."""
    refs, memos = [], []
    init = UqBorel.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        memos.append((self._ideal_bases, self._products))

    monkeypatch.setattr(UqBorel, "__init__", tracking)
    rs = rs_of("A", 2)
    gc.disable()
    try:
        assert run_full_verification(rs, parse_root(rs, "L1-L3")).verdict == "pass"
        assert refs and all(ref() is None for ref in refs)
        assert memos and all(bases and products for bases, products in memos)
    finally:
        gc.enable()


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
    if _commutator_provably_nonzero(alg, a, b):
        assert alg.nc_mul(a, b) - alg.nc_mul(b, a)
