import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoiso.linalg import SpanSolver, solve_linear_combination
from qcoiso.qfield import RF_ONE, RatFunc, parse_ratfunc
from qcoiso.rootsys import CartanType, build_root_system
from qcoiso.uqalg import (
    DegreeOverflowError,
    NCPoly,
    UqAlgebraError,
    UqBorel,
)
from algebra_helpers import RevlexBorel, from_terms, quotient_basis
from tensor_oracles import tensor_coproduct_left, tensor_coproduct_right

_ALGS = {}


def alg_of(series, rank, **kw):
    key = (series, rank, tuple(sorted(kw.items())))
    if key not in _ALGS:
        _ALGS[key] = UqBorel(build_root_system(CartanType(series, rank)), **kw)
    return _ALGS[key]


def rf(s):
    return parse_ratfunc(s)


def test_k_crossing_relation():
    # K1 E1 = q^2 E1 K1 in rank one
    alg = alg_of("A", 1)
    k1, e1 = alg.k_monomial((1,)), alg.gen(0)
    assert alg.nc_mul(k1, e1) - rf("q^2") * alg.nc_mul(e1, k1) == alg.zero()
    # and nc_mul(E1, K1) carries the crossing factor q^-2
    assert alg.nc_mul(e1, k1).terms == {((1,), (0,)): rf("q^-2")}


@pytest.mark.parametrize(
    "series, rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2), ("E", 6)]
)
def test_k_crossing_is_the_symmetrized_cartan_form(series, rank):
    # K^k E_w = q^(k, wt w) E_w K^k with the exponent from RootSystem.inner,
    # on G2's non-symmetric Cartan matrix as well
    alg = alg_of(series, rank)
    words = [
        (w, NCPoly(alg, {((0,) * rank, w): RF_ONE}))
        for n in range(4)
        for w in product(range(rank), repeat=n)
    ]
    for kexp in product(range(3), repeat=rank):
        k = alg.k_monomial(kexp)
        for w, e in words:
            q = RatFunc.q_power(alg.rs.inner(kexp, alg.content_of(w)))
            assert alg.nc_mul(k, e) == q * alg.nc_mul(e, k), (kexp, w)


def test_unit_and_associativity_instance():
    alg = alg_of("A", 3)
    x = alg.gen(0) + rf("q") * alg.nc_mul(alg.gen(1), alg.gen(2))
    assert alg.nc_mul(alg.one(), x) == x
    e1, e2, e3 = (alg.gen(i) for i in range(3))
    assert alg.nc_mul(alg.nc_mul(e1, e2), e3) == alg.nc_mul(e1, alg.nc_mul(e2, e3))


def test_nc_mul_associativity_random():
    rng = random.Random(41)
    alg = alg_of("B", 3)
    for _ in range(40):
        xs = [_random_poly(alg, rng, maxdeg=2) for _ in range(3)]
        a, b, c = xs
        assert alg.nc_mul(alg.nc_mul(a, b), c) == alg.nc_mul(a, alg.nc_mul(b, c))


def _random_poly(alg, rng, maxdeg=2, nterms=2):
    terms = []
    for _ in range(nterms):
        kexp = tuple(rng.randint(-1, 1) for _ in range(alg.rank))
        word = tuple(rng.randrange(alg.rank) for _ in range(rng.randint(0, maxdeg)))
        coeff = RatFunc.q_power(rng.randint(-2, 2)) * RatFunc.from_int(rng.randint(-2, 2))
        terms.append((kexp, word, coeff))
    return from_terms(alg, terms)


def test_k_crossing_letter_by_letter():
    # crossing a K-monomial over a word, computed independently per letter
    alg = alg_of("C", 2)
    rng = random.Random(5)
    for _ in range(30):
        kexp = tuple(rng.randint(-2, 2) for _ in range(2))
        word = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
        kmono = alg.k_monomial(kexp)
        wpoly = NCPoly(alg, {((0, 0), word): RF_ONE})
        shift = 0
        for l in word:
            shift += sum(kexp[i] * alg.d[i] * alg.A[i][l] for i in range(2))
        # K^v w = q^shift w K^v
        assert alg.nc_mul(kmono, wpoly) == RatFunc.q_power(shift) * alg.nc_mul(wpoly, kmono)


def test_q_bracket_instances():
    alg = alg_of("A", 2)
    e1, e2 = alg.gen(0), alg.gen(1)
    br = alg.q_bracket(e1, e2, 1)
    assert br.terms == {
        ((0, 0), (0, 1)): RF_ONE,
        ((0, 0), (1, 0)): -rf("q"),
    }
    x = _random_poly(alg, random.Random(1))
    assert alg.q_bracket(x, x, 0) == alg.zero()
    # [K1 K2, E1] vanishes as a q^1-bracket in type A
    k12 = alg.k_monomial((1, 1))
    assert alg.q_bracket(k12, e1, 1) == alg.zero()


def test_serre_relation_a2():
    alg = alg_of("A", 2)
    rels = alg.serre_relations()
    r12 = rels[(0, 1)]
    q2 = rf("q + q^-1")
    expected = from_terms(
        alg,
        [
            ((0, 0), (0, 0, 1), RF_ONE),
            ((0, 0), (0, 1, 0), -q2),
            ((0, 0), (1, 0, 0), RF_ONE),
        ]
    )
    assert r12 == expected


def test_serre_relation_commuting_case():
    alg = alg_of("A", 3)
    rels = alg.serre_relations()
    r13 = rels[(0, 2)]
    assert r13 == alg.q_bracket(alg.gen(0), alg.gen(2), 0)


def test_serre_relation_g2_nested_bracket_form():
    # the degree-5 relation equals the iterated bracket
    # [E1,[E1,[E1,[E1,E2]_{q^3}]_q]_{q^-1}]_{q^-3}
    alg = alg_of("G", 2)
    rels = alg.serre_relations()
    e1, e2 = alg.gen(0), alg.gen(1)
    nested = alg.q_bracket(e1, alg.q_bracket(e1, alg.q_bracket(e1, alg.q_bracket(e1, e2, 3), 1), -1), -3)
    assert nested == rels[(0, 1)]
    # and the degree-3 partner relation in nested form
    nested2 = alg.q_bracket(e2, alg.q_bracket(e2, e1, 3), -3)
    assert nested2 == rels[(1, 0)]


def test_quotient_basis_small():
    alg = alg_of("A", 2)
    deg2 = quotient_basis(alg, 2)
    assert deg2 == [(0, 0), (0, 1), (1, 0), (1, 1)]
    deg3 = quotient_basis(alg, 3)
    assert len(deg3) == 6
    a1 = alg_of("A", 1)
    for d in range(1, 6):
        assert quotient_basis(a1, d) == [(0,) * d]


def test_quotient_dimensions_match_pbw_counts():
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(CartanType(series, rank))
        alg = alg_of(series, rank)
        for mu in _all_contents(rank, 4):
            try:
                basis = alg.table(mu).basis
            except DegreeOverflowError:
                continue
            assert len(basis) == _pbw_count(rs, mu), (series, rank, mu)


def _all_contents(rank, maxdeg):
    for v in product(range(maxdeg + 1), repeat=rank):
        if 0 < sum(v) <= maxdeg:
            yield v


def _pbw_count(rs, mu):
    roots = [r.decomp for r in rs.positive_roots]

    def count(idx, rem):
        if all(c == 0 for c in rem):
            return 1
        if idx == len(roots):
            return 0
        total = 0
        r = roots[idx]
        k = 0
        cur = rem
        while True:
            total += count(idx + 1, cur)
            if any(a < b for a, b in zip(cur, r)):
                break
            cur = tuple(a - b for a, b in zip(cur, r))
            k += 1
        return total

    return count(0, tuple(mu))


def test_degree_overflow_error():
    alg = UqBorel(build_root_system(CartanType("A", 2)), max_degree=3)
    with pytest.raises(DegreeOverflowError):
        quotient_basis(alg, 4)


def test_coproduct_generator():
    alg = alg_of("A", 2)
    e1 = alg.gen(0)
    delta = alg.coproduct(e1)
    assert delta.terms == {
        (((0, 0), (0,)), ((1, 0), ())): RF_ONE,
        (((0, 0), ()), ((0, 0), (0,))): RF_ONE,
    }


def test_coproduct_unit_and_k():
    alg = alg_of("A", 2)
    one = alg.one()
    assert alg.coproduct(one).terms == {(((0, 0), ()), ((0, 0), ())): RF_ONE}
    k = alg.k_monomial((1, 1))
    assert alg.coproduct(k).terms == {(((1, 1), ()), ((1, 1), ())): RF_ONE}


def test_coproduct_qbracket_three_terms():
    # Delta([E1,E2]_q) = [E1,E2]_q (x) K1K2 + (1-q^2) E1 (x) K1 E2
    #                  + 1 (x) [E1,E2]_q ; the E2 (x) [E1,K2]_q term cancels.
    alg = alg_of("A", 2)
    e1, e2 = alg.gen(0), alg.gen(1)
    x = alg.q_bracket(e1, e2, 1)
    delta = alg.coproduct(x)
    legs_with_left_e2 = [
        key for key in delta.terms if key[0] == ((0, 0), (1,))
    ]
    assert legs_with_left_e2 == []
    # left leg E1 pairs with K1 E2 on the right
    got = {k: v for k, v in delta.terms.items() if k[0] == ((0, 0), (0,))}
    assert got == {(((0, 0), (0,)), ((1, 0), (1,))): rf("1 - q^2")}


def test_coproduct_multiplicative():
    rng = random.Random(9)
    alg = alg_of("A", 2)
    for _ in range(25):
        a = _random_poly(alg, rng, maxdeg=2)
        b = _random_poly(alg, rng, maxdeg=2)
        assert alg.coproduct(alg.nc_mul(a, b)) == alg.coproduct(a) * alg.coproduct(b)


def test_coassociativity():
    rng = random.Random(10)
    alg = alg_of("B", 2)
    for i in range(alg.rank):
        t = alg.coproduct(alg.gen(i))
        assert tensor_coproduct_left(t) == tensor_coproduct_right(t)
    for _ in range(15):
        x = _random_poly(alg, rng, maxdeg=2)
        t = alg.coproduct(x)
        assert tensor_coproduct_left(t) == tensor_coproduct_right(t)


def test_nf_kills_relations_and_multiples():
    rng = random.Random(12)
    for series, rank in [("A", 2), ("C", 2), ("G", 2)]:
        alg = alg_of(series, rank)
        for rel in alg.serre_relations().values():
            assert alg.nf_is_zero(rel)
            u = _random_poly(alg, rng, maxdeg=1)
            v = _random_poly(alg, rng, maxdeg=1)
            prod = alg.nc_mul(alg.nc_mul(u, rel), v)
            assert alg.nf_is_zero(prod)


def test_ideal_membership_certificate_roundtrip():
    alg = alg_of("A", 2)
    rels = alg.serre_relations()
    x = rels[(0, 1)]
    cert = alg.ideal_membership(x)
    assert cert is not None
    assert alg.expand_ideal_certificate(cert) == x
    # E1 E2 is not in the ideal (degree-2 component vanishes)
    e1e2 = alg.nc_mul(alg.gen(0), alg.gen(1))
    assert alg.ideal_membership(e1e2) is None


@st.composite
def _ideal_elements(draw):
    """A fresh rank-two algebra and a Laurent combination of u.R.v
    templates, with one or two components (K-prefix, content) of degree at
    most 5."""
    series = draw(st.sampled_from(["A", "B", "G"]))
    alg = UqBorel(build_root_system(CartanType(series, 2)))
    contents = [
        mu for d in range(1, 6) for mu in ((a, d - a) for a in range(d + 1))
        if alg.ideal_templates(mu)
    ]
    x = alg.zero()
    for mu in draw(st.lists(st.sampled_from(contents), min_size=1, max_size=2, unique=True)):
        k = alg.k_monomial(draw(st.tuples(st.integers(0, 1), st.integers(0, 1))))
        templates = alg.ideal_templates(mu)
        for n in draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=4)):
            c = RatFunc.from_int(draw(st.sampled_from([-2, -1, 1, 3])))
            c = c * RatFunc.q_power(draw(st.integers(-2, 2)))
            x = x + k * (templates[n][1] * c)
    return alg, x


def _full_template_solve(alg, x):
    """ideal_membership's answer, solved over every template of each content."""
    solution = {}
    for (kexp, mu), comp in x.components().items():
        templates = [
            (label, {w: c for (_, w), c in poly.terms.items()})
            for label, poly in alg.ideal_templates(mu)
        ]
        coeffs, _ = solve_linear_combination(templates, {w: c for (_, w), c in comp.terms.items()})
        if coeffs is None:
            return None
        for label, c in coeffs.items():
            solution[(kexp, label)] = c
    return solution


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ideal_elements())
def test_ideal_certificate_matches_full_template_solve(case):
    """Solving over the greedy basis of the templates gives the coefficients,
    in the same order, of a solve over every template, cold and warm."""
    alg, x = case
    expected = _full_template_solve(alg, x)
    assert expected is not None
    cold = alg.ideal_membership(x)
    assert list(cold.items()) == list(expected.items())
    assert alg.expand_ideal_certificate(cold) == x
    warm = alg.ideal_membership(x)
    assert list(warm.items()) == list(expected.items())
    # a basis word of the quotient is not in the ideal
    for (kexp, mu) in x.components():
        word = alg.table(mu).basis[0]
        outside = x + NCPoly(alg, {(kexp, word): RF_ONE})
        assert alg.ideal_membership(outside) is None
        assert _full_template_solve(alg, outside) is None


@st.composite
def _commuting_ideal_elements(draw):
    """A fresh A3/B3/C3 algebra and a Laurent combination of u.R.v
    templates, R_ji included, with one or two components (K-prefix, content)
    of degree at most 5 whose content holds the commuting pair E1, E3."""
    alg = UqBorel(build_root_system(CartanType(draw(st.sampled_from(["A", "B", "C"])), 3)))
    contents = [
        mu for mu in product(range(4), repeat=3) if 2 <= sum(mu) <= 5 and mu[0] and mu[2]
    ]
    x = alg.zero()
    for mu in draw(st.lists(st.sampled_from(contents), min_size=1, max_size=2, unique=True)):
        k = alg.k_monomial(draw(st.tuples(*[st.integers(0, 1)] * 3)))
        templates = alg.ideal_templates(mu)
        for n in draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=4)):
            c = RatFunc.from_int(draw(st.sampled_from([-2, -1, 1, 3])))
            c = c * RatFunc.q_power(draw(st.integers(-2, 2)))
            x = x + k * (templates[n][1] * c)
    return alg, x


def _greedy_labels(templates):
    """Labels of the templates independent of every template before them."""
    span = SpanSolver()
    return [
        label for label, poly in templates
        if span.add({w: c for (_, w), c in poly.terms.items()})
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_commuting_ideal_elements())
def test_ideal_basis_skips_the_second_relation_of_a_commuting_pair(case):
    """The basis is searched without R_ji for a commuting pair (R_ji = -R_ij);
    it, and every certificate, equal those over every template."""
    alg, x = case
    expected = _full_template_solve(alg, x)
    assert expected is not None
    cold = alg.ideal_membership(x)
    assert list(cold.items()) == list(expected.items())
    assert alg.expand_ideal_certificate(cold) == x
    warm = alg.ideal_membership(x)
    assert list(warm.items()) == list(expected.items())
    for _, mu in x.components():
        basis = [label for label, _ in alg._ideal_basis(mu)]
        assert basis == _greedy_labels(alg.ideal_templates(mu))
        assert any(ij == (0, 2) for _, ij, _ in basis)


def test_ideal_certificate_expansion_matches_multiplication():
    """Re-expansion by concatenating words equals K^k * E_u * R_ij * E_v
    multiplied out, for K-exponents that cross the words with a factor."""
    rng = random.Random(17)
    for series, rank in [("A", 3), ("B", 2), ("G", 2)]:
        alg = alg_of(series, rank)
        rels = alg.serre_relations()
        for _ in range(30):
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                kexp = tuple(rng.randint(-2, 2) for _ in range(rank))
                if not any(kexp):
                    kexp = (1,) + kexp[1:]
                u, v = (
                    tuple(rng.randrange(rank) for _ in range(rng.randint(0, 2)))
                    for _ in range(2)
                )
                c = RatFunc.from_int(rng.choice([-2, -1, 1, 3])) * RatFunc.q_power(rng.randint(-2, 2))
                coeffs[(kexp, (u, rng.choice(sorted(rels)), v))] = c
            expected = alg.zero()
            for (kexp, (u, ij, v)), c in coeffs.items():
                eu, ev = (NCPoly(alg, {((0,) * rank, w): RF_ONE}) for w in (u, v))
                expected = expected + c * alg.nc_mul(
                    alg.nc_mul(alg.nc_mul(alg.k_monomial(kexp), eu), rels[ij]), ev
                )
            assert alg.expand_ideal_certificate(coeffs) == expected


def test_ideal_membership_ijkj():
    # [[ [E_i,E_j]_q, E_k]_q, E_j ] lies in the ideal for the A3 pattern
    # a_ij = a_jk = -1, a_ik = 0, with the known four-template certificate.
    alg = alg_of("A", 3)
    e = [alg.gen(i) for i in range(3)]
    target = alg.q_bracket(alg.q_bracket(alg.q_bracket(e[0], e[1], 1), e[2], 1), e[1], 0)
    cert = alg.ideal_membership(target)
    assert cert is not None
    assert alg.expand_ideal_certificate(cert) == target


def test_basis_change_consistency():
    # dimensions do not depend on the word order
    a = alg_of("A", 2)
    b = RevlexBorel(build_root_system(CartanType("A", 2)))
    for d in range(1, 5):
        assert len(quotient_basis(a, d)) == len(quotient_basis(b, d))


@pytest.mark.parametrize(
    "series, rank, degree, tables, digest",
    [
        ("B", 3, 8, 165, "c1b04a3f295e2da53d835d0a77a7d9a9c8e06919243825e8ed1534bc53d02732"),
        ("D", 4, 8, 495, "7a97ffd38c7c11f5ea92c0f31e99d001295b02232c715593b08658fb91772ccb"),
        ("G", 2, 9, 55, "28764e12ffcca67aa8402f098025f4a6e265770884ffa7e3d5a58cbaa3d9821a"),
        ("E", 6, 7, 1716, "e203166da52e6b3fd6b014591a99940ed7804196a1657e508ac9afd01726948e"),
    ],
)
def test_normal_form_tables_are_pinned(series, rank, degree, tables, digest):
    # every table up to the degree: its basis, then one line "i b w:c ..."
    # per raise_map entry, all in insertion order; every report is built on
    # these tables, so a change to the Q(q) arithmetic or the elimination
    # must reproduce them exactly
    alg = UqBorel(build_root_system(CartanType(series, rank)), max_degree=degree)
    lines = []
    for mu in product(range(degree + 1), repeat=rank):
        if sum(mu) > degree:
            continue
        tbl = alg.table(mu)
        lines.append(f"{mu} {tbl.basis}")
        for i, rm in tbl.raise_map.items():
            for b, vec in rm.items():
                lines.append(f"{i} {b} " + " ".join(f"{w}:{c.render()}" for w, c in vec.items()))
    assert len(alg._tables) == tables
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@st.composite
def _generator_sets(draw):
    """An A2/B2/G2 algebra, multihomogeneous generators (a zero-content
    K-monomial first), a target (kexp, content) and min_factors."""
    alg = alg_of(draw(st.sampled_from(["A", "B", "G"])), 2)
    nonneg = st.tuples(st.integers(0, 1), st.integers(0, 1))
    kmono = draw(nonneg.filter(any))
    gens = [("K", alg.k_monomial(kmono))]
    for n in range(draw(st.integers(1, 3))):
        kexp = draw(nonneg)
        letters = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2))
        words = draw(st.lists(st.permutations(letters).map(tuple), min_size=1, max_size=2, unique=True))
        coeffs = [RatFunc.q_power(draw(st.integers(-1, 1))) for _ in words]
        gens.append((f"G{n}", from_terms(alg, ((kexp, w, c) for w, c in zip(words, coeffs)))))
    # the target is the degree of a random sequence, so it is usually reached
    picks = draw(st.lists(st.sampled_from([poly for _, poly in gens]), max_size=3))
    kexp, content = [0, 0], [0, 0]
    for poly in picks:
        (gk, gw), = poly.components()
        for i in range(2):
            kexp[i] += gk[i]
            content[i] += gw[i]
    return alg, gens, (tuple(kexp), tuple(content)), draw(st.sampled_from([0, 1, 2]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generator_sets())
def test_generator_products_match_brute_force(case):
    alg, gens, (kexp, content), min_factors = case
    # (kexp, content) of each generator, flattened into one tuple
    degree = {name: sum(next(iter(poly.components())), ()) for name, poly in gens}
    goal = kexp + content
    # every generator adds at least 1 to sum(goal)
    expected = sorted(
        "*".join(seq) if seq else "1"
        for n in range(min_factors, sum(goal) + 1)
        for seq in product([name for name, _ in gens], repeat=n)
        if tuple(sum(degree[name][i] for name in seq) for i in range(len(goal))) == goal
    )
    got = alg.generator_products(gens, kexp, content, min_factors)
    assert got == expected
    for label in got:
        poly = alg.label_product(label, dict(gens))
        assert set(poly.components()) == {(kexp, content)}


def test_generator_products_reject_mixed_generators():
    alg = alg_of("A", 2)
    mixed = alg.gen(0) + alg.gen(1)
    with pytest.raises(UqAlgebraError, match="not multihomogeneous"):
        alg.generator_products([("M", mixed)], (0, 0), (1, 1))
    # single-term generators are multihomogeneous
    gens = [("E1", alg.gen(0)), ("E2", alg.gen(1))]
    assert alg.generator_products(gens, (0, 0), (1, 1)) == ["E1*E2", "E2*E1"]
    assert alg.generator_products(gens, (0, 0), (2, 0)) == ["E1*E1"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generator_sets())
def test_product_normal_forms_match_expansion(case):
    """Normal forms taken from the label prefix (never expanding p * g)
    equal the normal forms of the expanded products; the shared algebra's
    memo is warm from earlier examples, a fresh algebra's is cold."""
    alg, gens, (kexp, content), min_factors = case
    cold, reference = UqBorel(alg.rs), UqBorel(alg.rs)
    warm_nfs, cold_nfs = {}, {}
    for label in alg.generator_products(gens, kexp, content, min_factors):
        poly = alg.label_product(label, dict(gens))
        expected = reference.nf_components(poly)
        assert set(expected) <= {(kexp, content)}
        expected = expected.get((kexp, content), {})
        assert alg._product_nf(label, dict(gens), warm_nfs) == expected, label
        assert cold._product_nf(label, dict(gens), cold_nfs) == expected, label
        # the warm memo agrees with the reference's fold from the empty word
        for _, word in poly.terms:
            assert alg.nf_word(word) == reference.nf_word(word)
