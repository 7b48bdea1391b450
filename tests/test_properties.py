"""Randomized property suites, runnable standalone:

    pytest tests/test_properties.py

Covers field axioms in Q(q), noncommutative multiplication, the coproduct,
quotient dimensions against independent monomial counts, the q-commutation
transfer harness, and re-expansion soundness of emitted certificates.
"""

import random

from qcoiso.qfield import RF_ONE, RatFunc
from qcoiso.rootsys import CartanType, build_root_system, parse_root
from qcoiso.uqalg import UqBorel
from qcoiso.verify import check_flatness, check_left_coideal
from algebra_helpers import check_qcommute_closure, from_terms
from tensor_oracles import tensor_coproduct_left, tensor_coproduct_right, tensor_mul

_ALGS = {}


def alg_of(series, rank, **kw):
    key = (series, rank, tuple(sorted(kw.items())))
    if key not in _ALGS:
        _ALGS[key] = UqBorel(build_root_system(CartanType(series, rank)), **kw)
    return _ALGS[key]


def _random_ratfunc(rng):
    num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
    den = ()
    while not any(den):
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
    return RatFunc(num, den)


def test_field_axioms_1000_triples():
    rng = random.Random(0xF1E1D)
    for _ in range(1000):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (RF_ONE / a) == RF_ONE


def _random_poly(alg, rng, maxdeg, nterms=2, kspan=1):
    terms = []
    for _ in range(nterms):
        kexp = tuple(rng.randint(-kspan, kspan) for _ in range(alg.rank))
        word = tuple(rng.randrange(alg.rank) for _ in range(rng.randint(0, maxdeg)))
        coeff = RatFunc.q_power(rng.randint(-2, 2)) * RatFunc.from_int(
            rng.randint(-3, 3)
        )
        terms.append((kexp, word, coeff))
    return from_terms(alg, terms)


def test_nc_mul_associativity_200_triples():
    rng = random.Random(0xA550C)
    algs = [alg_of("A", 2), alg_of("B", 3), alg_of("C", 4), alg_of("D", 4)]
    for n in range(200):
        alg = algs[n % len(algs)]
        a, b, c = (_random_poly(alg, rng, maxdeg=4) for _ in range(3))
        assert alg.nc_mul(alg.nc_mul(a, b), c) == alg.nc_mul(a, alg.nc_mul(b, c))


def test_coproduct_multiplicativity_and_coassociativity_100_samples():
    rng = random.Random(0xC09A55)
    algs = [alg_of("A", 2), alg_of("G", 2), alg_of("B", 2)]
    for n in range(100):
        alg = algs[n % len(algs)]
        a = _random_poly(alg, rng, maxdeg=3)
        b = _random_poly(alg, rng, maxdeg=2)
        da, db = alg.coproduct(a), alg.coproduct(b)
        assert alg.coproduct(alg.nc_mul(a, b)) == tensor_mul(alg, da, db)
        if n % 2 == 0:
            assert tensor_coproduct_left(alg, da) == tensor_coproduct_right(alg, da)


def test_quotient_dimensions_vs_pbw_counts_degree_5():
    from itertools import product as iproduct

    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(CartanType(series, rank))
        alg = alg_of(series, rank, max_degree=5)
        roots = rs.positive_roots

        def pbw_count(mu):
            def count(idx, rem):
                if not any(rem):
                    return 1
                if idx == len(roots):
                    return 0
                total, cur = 0, rem
                while True:
                    total += count(idx + 1, cur)
                    if any(a < b for a, b in zip(cur, roots[idx])):
                        break
                    cur = tuple(a - b for a, b in zip(cur, roots[idx]))
                return total

            return count(0, mu)

        for mu in iproduct(range(6), repeat=rank):
            if not 0 < sum(mu) <= 5:
                continue
            assert len(alg.table(mu).basis) == pbw_count(mu), (series, rank, mu)


def test_qcommute_transfer_50_instances():
    alg = alg_of("A", 4)
    rng = random.Random(0x7A)
    e = [alg.gen(i) for i in range(4)]
    # elements with known q-commutation partners: [E_i, E_j]_{q^0} for a_ij=0,
    # and the Serre pattern [E_i, [E_i, E_j]_q]_{q^-1}
    pool = {
        "E1": (e[0], {"E3": 0, "E4": 0, "X12": -1}),
        "E2": (e[1], {"E4": 0, "X23": -1}),
        "E4": (e[3], {"E1": 0, "E2": 0, "D43": -1}),
    }
    elements = {
        "E1": e[0],
        "E2": e[1],
        "E3": e[2],
        "E4": e[3],
        "X12": alg.q_bracket(e[0], e[1], 1),
        "X23": alg.q_bracket(e[1], e[2], 1),
        "D43": alg.q_bracket(e[3], e[2], 1),
    }
    done = 0
    while done < 50:
        a_name = rng.choice(sorted(pool))
        a, known = pool[a_name]
        if len(known) < 2:
            continue
        b_name, c_name = rng.sample(sorted(known), 2)
        pa, pb = known[b_name], known[c_name]
        pc = rng.randint(-2, 2)
        res = check_qcommute_closure(
            alg, a, elements[b_name], elements[c_name], pa, pb, pc
        )
        assert res is True, (a_name, b_name, c_name, pa, pb, pc)
        done += 1


def test_certificates_reexpand_on_emitted_runs():
    from qcoiso.recipes import builtin_recipe

    for series, rank, lit in [("A", 3, "L1-L4"), ("C", 2, "2L1"), ("G", 2, "3a1+a2")]:
        rs = build_root_system(CartanType(series, rank))
        beta = parse_root(rs, lit)
        recipe = builtin_recipe(rs, beta)
        alg = UqBorel(rs, max_degree=2 * recipe.max_degree())
        for outcome in check_left_coideal(recipe, alg):
            assert outcome["pass"]
            for cert in outcome["certificates"]:
                assert cert["residual_check"]
        for entry in check_flatness(recipe, alg):
            assert entry["verdict"] == "pass"
            cert = entry.get("certificate")
            if cert is not None:
                assert cert["residual_check"]
