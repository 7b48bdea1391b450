import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import (
    ad_bivector_by_legs,
    bracket_by_legs,
    check_coisotropic_direct,
    coxeter_number,
    oracle_realization,
    root_length_sq,
    root_matrices,
)
from qcoiso import classical, cli, verify
from qcoiso.cli import main
from qcoiso.classical import (
    RealizationError,
    ad_bivector,
    bivector,
    build_r_matrix,
    build_realization,
    check_coisotropic,
    check_master_equation,
    coisotropic_generators,
    killing_lambda,
)
from qcoiso.linalg import vec_add_scaled
from qcoiso.recipes import RecipeError, builtin_recipe
from qcoiso.rootsys import (
    CartanType,
    build_root_system,
    admissible_positive_roots,
    is_admissible,
    parse_root,
)

F1 = Fraction(1)

_CACHE = {}


def realization(series, rank):
    key = (series, rank)
    if key not in _CACHE:
        rs = build_root_system(CartanType(series, rank))
        _CACHE[key] = (rs, build_realization(rs))
    return _CACHE[key]


# the matrix goldens test the oracle of tests/algebra_helpers.py

def test_sl_matrix_golden():
    rs = build_root_system(CartanType("A", 2))
    r = parse_root(rs, "L1-L2")
    assert root_matrices(rs)[r.decomp] == {(0, 1): F1}


def test_sp_matrix_golden():
    rs = build_root_system(CartanType("C", 2))
    r = parse_root(rs, "2L1")
    assert root_matrices(rs)[r.decomp] == {(0, 2): F1}


def test_so_odd_matrix_golden():
    rs = build_root_system(CartanType("B", 2))
    r = parse_root(rs, "L1")
    assert root_matrices(rs)[r.decomp] == {(0, 4): F1, (4, 2): -F1}


def test_traceless_and_form_antisymmetry():
    for series, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(CartanType(series, rank))
        for m in root_matrices(rs).values():
            if series == "A":
                assert sum(v for (r, c), v in m.items() if r == c) == 0


def test_unfixed_orbit_sum_is_rejected(monkeypatch):
    # reversing the nodes of A4 is a diagram automorphism, but it maps
    # e[a2+a3] = [e2, e3] to [e3, e2] = -e[a2+a3], so that orbit sum is not
    # fixed and the fold must refuse it (for B2, whose fold it replaces)
    rs = build_root_system(CartanType("B", 2))
    monkeypatch.setitem(
        classical._FOLDS, "B", lambda n: (CartanType("A", 4), [3, 2, 1, 0], [0, 1, 1, 0])
    )
    with pytest.raises(RealizationError, match=r"of A4 does not fix the orbit sum of e\[a2\+a3\]"):
        build_realization(rs)


def jacobi_defect(cb, x, y, z):
    out = {}
    vec_add_scaled(out, cb.bracket(x, cb.bracket(y, z)))
    vec_add_scaled(out, cb.bracket(y, cb.bracket(z, x)))
    vec_add_scaled(out, cb.bracket(z, cb.bracket(x, y)))
    return out


def test_jacobi_random_triples():
    rng = random.Random(17)
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("E", 6), ("F", 4)]:
        rs, cb = realization(series, rank)
        for _ in range(25):
            xs = []
            for _ in range(3):
                v = {}
                for _ in range(3):
                    v[rng.randrange(cb.dim)] = Fraction(rng.randint(-3, 3))
                xs.append({k: c for k, c in v.items() if c})
            assert jacobi_defect(cb, *xs) == {}


def _jacobi_holds_near(cb, rs, a, b, rng):
    """Jacobi on 25 random triples, and on e_a, e_b with every basis vector:
    a single wrong N(a, b) shows in the second set."""
    for _ in range(25):
        xs = [{rng.randrange(cb.dim): Fraction(rng.randint(1, 3)) for _ in range(3)}
              for _ in range(3)]
        if jacobi_defect(cb, *xs):
            return False
    ea, eb = cb.e(rs.simple_roots[a]), cb.e(rs.simple_roots[b])
    return all(not jacobi_defect(cb, ea, eb, {k: F1}) for k in range(cb.dim))


@pytest.mark.parametrize("rank", [7, 8])
def test_e7_e8_realizations_are_lie_algebras(rank):
    rs, cb = realization("E", rank)
    assert _jacobi_holds_near(cb, rs, 0, 2, random.Random(rank))
    # [e_a, f_a] is the coroot, sum c_i h_i for a = sum c_i a_i (simply laced)
    roots = rs.positive_roots if rank == 7 else random.Random(3).sample(rs.positive_roots, 30)
    for r in roots:
        expected = {cb.h_index(i): Fraction(c) for i, c in enumerate(r.decomp) if c}
        assert cb.bracket(cb.e(r), cb.f(r)) == expected, r


def test_flipped_e7_structure_constant_breaks_jacobi(monkeypatch):
    # the control for the E7 checks: one sign of N(a1, a3) flipped
    original = classical._simply_laced_pos_constants

    def flipped(rs):
        out = original(rs)
        key = ((0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0))
        out[key] = -out[key]
        return out

    monkeypatch.setattr(classical, "_simply_laced_pos_constants", flipped)
    rs = build_root_system(CartanType("E", 7))
    assert not _jacobi_holds_near(build_realization(rs), rs, 0, 2, random.Random(7))


@pytest.mark.parametrize("rank", [7, 8])
def test_every_e7_e8_root_passes_every_classical_check(rank):
    rs, cb = realization("E", rank)
    pi = build_r_matrix(cb)
    for beta in rs.positive_roots:
        assert is_admissible(rs, beta)
        e = cb.e(beta)
        report = check_coisotropic(cb, pi, coisotropic_generators(cb, ad_bivector(cb, e, pi)))
        assert report.passed and check_master_equation(cb, e, pi), beta


def test_g2_jacobi_exhaustive():
    rs, cb = realization("G", 2)
    for i in range(cb.dim):
        for j in range(i + 1, cb.dim):
            for k in range(j + 1, cb.dim):
                assert jacobi_defect(cb, {i: F1}, {j: F1}, {k: F1}) == {}


def _ad_killing(cb, x, y):
    """tr(ad x ad y), the Killing form read straight off the bracket table."""
    return sum(cb.bracket(x, cb.bracket(y, {b: F1})).get(b, 0) for b in range(cb.dim))


def test_killing_invariance():
    # the ad-trace form is the reference oracle: it is invariant, and the
    # closed form of killing_lambda is its inverse on every e_r, f_r pair
    rng = random.Random(23)
    for series, rank in [("A", 2), ("C", 2), ("G", 2)]:
        rs, cb = realization(series, rank)
        for _ in range(20):
            xs = []
            for _ in range(3):
                v = {rng.randrange(cb.dim): Fraction(rng.randint(-2, 2)) for _ in range(2)}
                xs.append({k: c for k, c in v.items() if c})
            x, y, z = xs
            lhs = _ad_killing(cb, cb.bracket(x, y), z) + _ad_killing(cb, y, cb.bracket(x, z))
            assert lhs == 0
    cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("E", 6), ("F", 4)]
    for series, rank in cases:
        rs, cb = realization(series, rank)
        for r in rs.positive_roots:
            assert killing_lambda(cb, r) == 1 / _ad_killing(cb, cb.e(r), cb.f(r)), (series, r)


def test_killing_lambda_g2():
    rs, cb = realization("G", 2)
    for r in rs.positive_roots:
        lam = killing_lambda(cb, r)
        if root_length_sq(rs, r) == 2:  # short
            assert lam == Fraction(1, 24)
        else:
            assert lam == Fraction(1, 8)


def test_killing_lambda_e6():
    rs, cb = realization("E", 6)
    k = coxeter_number(rs)
    assert k == 12
    for r in rs.positive_roots[:8] + rs.positive_roots[-3:]:
        assert killing_lambda(cb, r) == Fraction(1, 2 * k)


def test_r_matrix_sl_uniform():
    rs, cb = realization("A", 2)
    pi = build_r_matrix(cb)
    lam = killing_lambda(cb, rs.positive_roots[0])
    assert lam == Fraction(1, 6)
    assert pi == {
        (cb.e_index(r), cb.f_index(r)): lam for r in rs.positive_roots
    }


def test_r_matrix_rank_one():
    rs, cb = realization("A", 1)
    pi = build_r_matrix(cb)
    assert len(pi) == 1


def test_ad_bivector_sl_golden():
    # For beta = L1-L3 in sl(3), with [e_{12}, e_{23}] = N e_{13}:
    #   [e_beta, pi] = lambda * (-2N e_{12} ^ e_{23} + e_{13} ^ (h1+h2))
    # matching the two-leg structure of the known formula up to the global
    # orientation of the bracket.
    rs, cb = realization("A", 2)
    pi = build_r_matrix(cb)
    beta = parse_root(rs, "L1-L3")
    got = ad_bivector(cb, cb.e(beta), pi)
    lam = killing_lambda(cb, beta)
    r12 = parse_root(rs, "L1-L2")
    r23 = parse_root(rs, "L2-L3")
    n = cb.bracket(cb.e(r12), cb.e(r23))[cb.e_index(beta)]
    assert n in (1, -1)
    expected = bivector(
        [
            (cb.e_index(r12), cb.e_index(r23), -2 * n * lam),
            (cb.e_index(beta), cb.h_index(0), lam),
            (cb.e_index(beta), cb.h_index(1), lam),
        ]
    )
    assert got == expected


def test_ad_bivector_zero():
    rs, cb = realization("A", 2)
    assert ad_bivector(cb, cb.e(rs.positive_roots[0]), {}) == {}


def test_coisotropic_generators_sl():
    rs, cb = realization("A", 3)
    pi = build_r_matrix(cb)
    beta = parse_root(rs, "L1-L4")
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    assert len(gens) == 6  # 2(j-i-1)+2 for i=1, j=4
    from qcoiso.classical import FractionSpan

    span = FractionSpan()
    for g in gens:
        span.add(g)
    for lit in ["L1-L4", "L1-L2", "L1-L3", "L2-L4", "L3-L4"]:
        assert span.contains(cb.e(parse_root(rs, lit)))
    cartan = {}
    for i in range(3):
        vec_add_scaled(cartan, cb.h(i))
    assert span.contains(cartan)


def test_coisotropic_generators_g2():
    rs, cb = realization("G", 2)
    pi = build_r_matrix(cb)
    from qcoiso.classical import FractionSpan

    beta = parse_root(rs, "3a1+a2")
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    assert len(gens) == 4
    span = FractionSpan()
    for g in gens:
        span.add(g)
    for lit in ["a1", "2a1+a2", "3a1+a2"]:
        assert span.contains(cb.e(parse_root(rs, lit)))
    assert span.contains(vec_add_scaled(dict(cb.h(0)), cb.h(1)))

    beta = parse_root(rs, "3a1+2a2")
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    assert len(gens) == 6
    span = FractionSpan()
    for g in gens:
        span.add(g)
    for lit in ["a2", "a1+a2", "2a1+a2", "3a1+a2", "3a1+2a2"]:
        assert span.contains(cb.e(parse_root(rs, lit)))
    assert span.contains(vec_add_scaled(dict(cb.h(0)), cb.h(1), Fraction(2)))


def test_coisotropic_generators_zero():
    rs, cb = realization("A", 2)
    assert coisotropic_generators(cb, {}) == []


def test_check_coisotropic_pass_sl4_and_sp4():
    for series, rank, lit in [("A", 3, "L1-L4"), ("C", 2, "2L1")]:
        rs, cb = realization(series, rank)
        pi = build_r_matrix(cb)
        beta = parse_root(rs, lit)
        gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
        report = check_coisotropic(cb, pi, gens)
        assert report.passed


def test_check_coisotropic_negative_control():
    rs, cb = realization("A", 3)
    pi = build_r_matrix(cb)
    beta = parse_root(rs, "L1-L4")
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    bad = gens + [cb.f(beta)]
    report = check_coisotropic(cb, pi, bad)
    assert not report.passed
    assert report.failing_pair is not None or report.failing_generator is not None


_ORACLE_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 2),
                 ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("E", 6)]


@pytest.mark.parametrize("series, rank", _ORACLE_TYPES)
def test_check_coisotropic_matches_direct_oracle(series, rank):
    # every positive root, inadmissible ones included (their generators as
    # `classical --force` builds them), then the same generators perturbed:
    # f_beta appended, and one generator shifted by a random basis vector
    rs, cb = realization(series, rank)
    pi = build_r_matrix(cb)
    rng = random.Random(f"{series}{rank}")
    failed = 0
    for beta in rs.positive_roots:
        gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
        gi = rng.randrange(len(gens))
        shifted = dict(gens[gi])
        vec_add_scaled(shifted, {rng.randrange(cb.dim): Fraction(rng.choice([-3, -1, 2, 5]), 2)})
        for case in (gens, gens + [cb.f(beta)], gens[:gi] + [shifted] + gens[gi + 1:]):
            report = check_coisotropic(cb, pi, case)
            assert report == check_coisotropic_direct(cb, pi, case), (series, rank, beta)
            failed += not report.passed
    # the perturbed cases reach the failing branches
    assert failed >= len(rs.positive_roots)


_COEFFS = st.fractions(max_denominator=4).filter(lambda c: c not in (0, 1))


def _elements(dim, min_terms):
    return st.dictionaries(st.integers(0, dim - 1), _COEFFS, min_size=min_terms, max_size=5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2), ("E", 6)]), st.data())
def test_row_walks_match_leg_by_leg_brackets(key, data):
    # several terms with coefficients other than 1: the workloads' generators
    # mostly touch one basis index with coefficient 1
    rs, cb = realization(*key)
    x = data.draw(_elements(cb.dim, 2))
    y = data.draw(_elements(cb.dim, 1))
    assert cb.bracket(x, y) == bracket_by_legs(cb, x, y)
    index = st.integers(0, cb.dim - 1)
    b = bivector(data.draw(st.lists(st.tuples(index, index, _COEFFS), max_size=6)))
    for biv in (b, build_r_matrix(cb)):
        assert ad_bivector(cb, x, biv) == ad_bivector_by_legs(cb, x, biv)


def test_master_equation_versus_admissibility():
    # The string filter is sufficient for [X,[X,pi]] = 0 but not necessary:
    # with the Killing-normalized r-matrix the cross terms cancel for a few
    # extra roots (verified by hand for C2, L1-L2), each of which still spans
    # a genuine small coisotropic subalgebra.
    surplus = {
        ("A", 2): set(),
        ("A", 3): set(),
        ("D", 4): set(),
        ("C", 2): {"L1-L2"},
        ("B", 2): {"L2"},
        ("G", 2): {"a1"},
    }
    for (series, rank), extra in surplus.items():
        rs, cb = realization(series, rank)
        pi = build_r_matrix(cb)
        disagree = set()
        for beta in rs.positive_roots:
            adm = is_admissible(rs, beta)
            meq = check_master_equation(cb, cb.e(beta), pi)
            if adm:
                assert meq  # the filter is sufficient
            if adm != meq:
                disagree.add(rs.render_root(beta))
                gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
                assert check_coisotropic(cb, pi, gens).passed
        assert disagree == extra


def test_master_equation_trivial():
    rs, cb = realization("A", 2)
    pi = build_r_matrix(cb)
    assert check_master_equation(cb, {}, pi)


def test_abstract_ef_brackets_are_coroots():
    # [e_a, f_a] = h_a, the coroot, on every root of every type
    cases = [("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4),
             ("G", 2), ("E", 6), ("F", 4)]
    for series, rank in cases:
        rs, cb = realization(series, rank)
        for r in rs.positive_roots:
            t = cb.bracket(cb.e(r), cb.f(r))
            # coroot coordinates over the simple coroot basis
            d = rs.symmetrizers
            lensq = root_length_sq(rs, r)
            expected = {}
            for i, c in enumerate(r.decomp):
                if c:
                    expected[cb.h_index(i)] = Fraction(2 * c * d[i], lensq)
            assert t == expected, (series, r)


# (series, rank, pairs, table digest, r-matrix digest); a row's test id is
# its series and rank, so a re-pin keeps it.  The A-D and G2 rows were
# re-pinned when their tables moved from the matrix realizations and the
# hand-typed G2 constants to the cocycle and its fold (_ORACLE_PINNED)
_PINNED = [
    ("A", 2, 28, "15d6b56961d854feeedde6c3cadfc34e02c8320ce9fe41fc7d974c9e97adc484",
     "ee2ad94f2485fb720b777454e508f1b3c21a9f0fbdfd109e3e6cfdd467f59d7c"),
    ("A", 3, 105, "1ed27ca555107841416ce278dba6bf5e70ffdd57ce6a3919e6f4b14577fce60b",
     "b20c79859d12858c23307b7c1ddb5501501fb9ebc7fa5e3265c00a6d8b796137"),
    ("A", 5, 595, "1ea371abe8513de1dc1630dfb8a6d863b53820aaab8642a7a06b39bc14c0c6ea",
     "348e707573c6eb01b07c2ee11b264f099709e2075b742b03cf5f74b44bf827d4"),
    ("B", 2, 45, "98d642318d62d82abfbc960c2aa29357e1881787ceec0e8ca40eeee466c67192",
     "ee89d0ecc57b683658f87d1b2269ed9c9e86ae39c95863250b1f736c4ae6b98c"),
    ("B", 3, 210, "e648ae213dbd9d162f8cfd484f4a51c5111ce27c3308a718a5f8ea824e5cc6f2",
     "c8e40f9133a879e1b2e439e3f9505b2b505d02acb1bcf1d413954f951b3a7a0e"),
    ("B", 4, 630, "66e8a2ad876c2571069beb2809e81bad7eb4f84fdf8938bcaf56519580c0f85f",
     "325045107081ea9fd426287a59d565f492fce4a42d087979bdab9d22744f12d6"),
    ("C", 2, 45, "cf3a53b1cdee1354cabd4e89684e9b6a3289dfec331e422a0409bd41cae62a22",
     "b6e52724b4af1ff35ead24cb28168e79c1e903183f06d16d7adf913f014de584"),
    ("C", 3, 210, "936fd26d01eefe319e80d2eb6004bd39a20c2f7c1c7ca02a12fead0829554c46",
     "6c1c6914dd7be686777688164460f81d94116ec0f107af69c2267a0114723ac8"),
    ("C", 4, 630, "490e0abc6cade654d4a8adccd521e0374da2362b313ff2af2c7c109b3359975f",
     "a57c9eb04663404be12a521d69d6e2e7359a20737895887c2b517c10b31d381b"),
    ("D", 4, 378, "84195c366c7c06443a0c15df97397da28337030be9e45ec3ed2dc7bf601555a1",
     "ae4d4d277312c99a2d300e63a02d84b34f75cbc20a8dc5b3a8b09c7ca47f69ab"),
    ("D", 5, 990, "a027df4c8d41b98a0dd3c480b06a723ed6eb62010d5f4d8f29239fd5dc43fdcf",
     "fd4082acbe8441d4efce904594efb6825770e9257ef097d758bfb3ad4c8fb555"),
    ("G", 2, 91, "1512612ec7e24bdb4f72cf1a54d39bc89de2ff78db0e5370216a0498c1c98324",
     "80724f70924c51bf1508b8a1c90c5d33224705696c0016d30c2f65e31ef7e40c"),
    ("E", 6, 3003, "241fba8bfd9e4108e5d57d30dff89123b151e839d18ac6be03aecfbdcd530469",
     "64ba721ea4253bc2772e3fc1386e06c9fa42e8de1be54c78e5344b86be126bf8"),
    ("E", 7, 8778, "6f6ee1418c2df68cfc9104b7bb837ff74468f911ebae8da4e1c58817be26b957",
     "c51ea5f4e8718cf36b2a7964de596f8bee4b81f78646eb75e8f434003275b7b7"),
    ("F", 4, 1326, "507e8f5b0176f0478cef6670ed387634b9afdf25d09e7c5ef012e7ee0a0d1d07",
     "af7fd1ec66dfe94ff6f813d43b14b891de65d455f6d2998ffbad3383535920b5"),
]


def _table_digests(cb):
    """(pair count, table digest, r-matrix digest, every coefficient): one
    line "i j k:v ..." per basis pair i < j, with the nonzero coefficients of
    [x_i, x_j] in index order, and one line "i j:c" per r-matrix term."""
    table = {(i, j): cb.bracket_basis(i, j) for i in range(cb.dim) for j in range(i + 1, cb.dim)}
    text = "\n".join(
        f"{i} {j} " + " ".join(f"{k}:{v}" for k, v in sorted(vec.items()))
        for (i, j), vec in sorted(table.items())
    )
    pi = build_r_matrix(cb)
    r_text = "\n".join(f"{i} {j}:{c}" for (i, j), c in sorted(pi.items()))
    both = [cb.bracket_basis(j, i) for i, j in table] + list(table.values())
    coeffs = [v for vec in both for v in vec.values()] + list(pi.values())
    return (len(table), hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(r_text.encode()).hexdigest(), coeffs)


@pytest.mark.parametrize(
    "series, rank, pairs, digest, r_digest",
    _PINNED,
    ids=[f"{series}{rank}" for series, rank, *_ in _PINNED],
)
def test_exceptional_bracket_tables_are_pinned(series, rank, pairs, digest, r_digest):
    # every report is built on these tables, so any rebuild of them must
    # match exactly.  Every coefficient must be a Fraction, in both orders:
    # an int would turn SpanSolver's 1 / pivot into a float.  The name
    # predates the A-D rows and the r-matrix.
    rs, cb = realization(series, rank)
    got_pairs, got_digest, got_r_digest, coeffs = _table_digests(cb)
    assert (got_pairs, got_digest, got_r_digest) == (pairs, digest, r_digest)
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("series, rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G", 2),
                                          ("F", 4), ("E", 6)])
def test_shared_table_leaves_are_never_written(series, rank):
    # the closed form stores one {k: v} per k and value, shared by every
    # entry that brackets to it, so a caller that wrote into a returned
    # vector would change other brackets; every reader leaves the table as
    # it was built
    rs = build_root_system(CartanType(series, rank))
    cb = build_realization(rs)
    before = _table_digests(cb)
    limits_run = 0
    for beta in admissible_positive_roots(rs):
        pi = build_r_matrix(cb)
        delta = ad_bivector(cb, cb.e(beta), pi)
        gens = coisotropic_generators(cb, delta)
        check_coisotropic(cb, pi, gens)
        check_master_equation(cb, cb.e(beta), pi)
        try:
            recipe = builtin_recipe(rs, beta)
        except RecipeError:
            continue
        limits = verify.classical_limits(recipe, cb)
        verify.generated_dim(cb, limits.values(), len(gens))
        limits_run += 1
    assert limits_run or series == "F"
    assert _table_digests(cb) == before
    # and a return to one vector per entry shows
    leaves = [vec for row in cb.rows for vec in row.values() if len(vec) == 1]
    assert len({id(vec) for vec in leaves}) == len({next(iter(vec.items())) for vec in leaves})


# the A-D and G2 digests of the table above before the cocycle and its fold
# replaced the matrix realizations and the hand-typed G2 constants
_ORACLE_PINNED = [
    ("A", 2, "e37a8a1d7840a282ed87036c76f39535be9cc828801db98d92374cd57d9daa78",
     "ee2ad94f2485fb720b777454e508f1b3c21a9f0fbdfd109e3e6cfdd467f59d7c"),
    ("A", 3, "574517b9e6bd067d4563138998c670a9b179fdfcd4a2e86f83ecc72608f47fbd",
     "b20c79859d12858c23307b7c1ddb5501501fb9ebc7fa5e3265c00a6d8b796137"),
    ("A", 5, "e6524a84b57ec7a4be9c6df7a1a292a0ea4fbcdb78a3ba0a4951619adfcb2783",
     "348e707573c6eb01b07c2ee11b264f099709e2075b742b03cf5f74b44bf827d4"),
    ("B", 2, "2bb2cc70b52dba8adfea439d79a472f076767ea6ca4a87470e0a824a21355d17",
     "29a21eb4204b296bdb679858ee7eb8b267fa73fb61de8f2161f1a31c36b67440"),
    ("B", 3, "4165aa4d55cdf53965545dc45fe577eaddb9769680fb4a257fd926a06afbb194",
     "04273e8a7225aa290096bacb04ec218358d184627dd613699f358f3cb630c47a"),
    ("B", 4, "8d41780b1ffb9bbb490ac1183cadde198abf6778274fd8746ba8e669a694d538",
     "9d4b483fcecc8715d5cf9bddb468a05a2f14ded92132b68f4ac73da056543a18"),
    ("C", 2, "421e8f1dadc7ea4699d3fb7480d858af8f3f0fe58ec2d15fbc377925ceb3c0a8",
     "b6e52724b4af1ff35ead24cb28168e79c1e903183f06d16d7adf913f014de584"),
    ("C", 3, "bf2ada1ecede53023119a5a06a0871f744656bae88d6849b02658e03d601c15f",
     "6c1c6914dd7be686777688164460f81d94116ec0f107af69c2267a0114723ac8"),
    ("C", 4, "e70ced7279142ceb6756763617e3397d474b49956ed50fa898547f2d3c2e4b3d",
     "a57c9eb04663404be12a521d69d6e2e7359a20737895887c2b517c10b31d381b"),
    ("D", 4, "86fe7e8f9aed4995fecb139fd904b0453dfd223db9a98b8cd4cb7df7959123dd",
     "ae4d4d277312c99a2d300e63a02d84b34f75cbc20a8dc5b3a8b09c7ca47f69ab"),
    ("D", 5, "1ac987fa18f71e5ee33aae166d93f412aa367525079d3940d5eddf2d77087a92",
     "fd4082acbe8441d4efce904594efb6825770e9257ef097d758bfb3ad4c8fb555"),
    ("G", 2, "05c431ec45db22173b7f8ad3ab7b5f7d269b56c674b27dfe230d634393954fd1",
     "80724f70924c51bf1508b8a1c90c5d33224705696c0016d30c2f65e31ef7e40c"),
]


@pytest.mark.parametrize("series, rank, digest, r_digest", _ORACLE_PINNED,
                         ids=[f"{s}{n}" for s, n, _, _ in _ORACLE_PINNED])
def test_oracle_tables_are_the_former_shipped_tables(series, rank, digest, r_digest):
    # the oracle derives no structure constant for A-D, yet it rebuilds the
    # tables the closed form wrote from the matrix constants, entry for entry
    rs = build_root_system(CartanType(series, rank))
    assert _table_digests(oracle_realization(rs))[1:3] == (digest, r_digest)


# sha256 over "exit code\nstdout" of `classical --type T --rank n --beta B
# --force --format json` for every positive root B in the root system's order
_CLASSICAL_PINNED = [
    ("A", 1, "069bfda2560dd3a01a206fd573201d973ee3efdec91f47a2c0532e7575a52b91"),
    ("A", 2, "57a03542989d5b4852b7433c42a9083a1a12bb068b87794618ab8f2ea8531e73"),
    ("A", 3, "3f0334f59f61f684083a0e14bb4c99b88b88d92e54f1481650cba1543e3d2145"),
    ("A", 4, "161ddf284b477ef4dc576840b37d8fc3b3305e103d1652356fc61a895dc23653"),
    ("A", 5, "9f868870fd42d40d74e31fd6b9ea22e2a1b73285433e2f2040eba08424f1ecf4"),
    ("A", 6, "eaaf251b2b3ac5c7f0dbdda2000320ea5011ca661ed683f7c2e2c6c522f9f288"),
    ("A", 7, "cc6af4a160268ec35ce41dfab60338f56484178bf779119958e5e053482c1344"),
    ("B", 2, "f9d7ca2bbcd6059232e57149265f4d74a22dccb92630c26042a4c45908b8f621"),
    ("B", 3, "9e3495f138c249a0f008a903461ded159682700b1203e1179c07c2f92579da8e"),
    ("B", 4, "802a5f24f9f6f5ca3c0a924127be1c5111ac0ed2f0279bda8c1f99c1eb97a1e0"),
    ("B", 5, "bce4383d71a7610c66f86ab08efd8902d4b174a69fff1bbfc2923f34f9fd55b4"),
    ("B", 6, "a2e1a008ff1c650b42157e5fe4a421e571bbc6b2626ea945d36d4b02288fa644"),
    ("C", 2, "e65fb08522a4446ecd3aa9faa64cf4abe242475a33a42b8007d7c31725a39fef"),
    ("C", 3, "6e81a7003c68203596eb952d9044504ecc6e623159eff5070acf30be5485ec5d"),
    ("C", 4, "9d98eca2f22901818e65eb427ffd2a0d08c7805578a5e9cf962ea6f0ac44ddd1"),
    ("C", 5, "e8e5dcd2f7faa2e58605283dc442dbc214af94e1cab8b0ea4e4acd2669fd5556"),
    ("C", 6, "d76c7b68f0529a2da7078ba8ebaae7f0e543788a44728b037c3a02e5114a8148"),
    ("D", 3, "4cd2f268eff0b4de4bf4e026655c4e39d0d613003d5338596527a8cf963545d1"),
    ("D", 4, "37463f30e77cb5e3f7af0f93ae9de8430a4445384f4370f5f596cc5cd1e35ffe"),
    ("D", 5, "90a47b309dfaf7811c105d41d6428f5045a070e4d43bc8c52fd86ec430519127"),
    ("D", 6, "3b19f2634c3b55e87ea8d959a8bb14bb65f4707fa9ae46ae40fd2f1864d0c162"),
    ("D", 7, "b9b24df5389d7ec4f52274e2b13f47a72e9367341c6f63d9c61bf7ec186c6559"),
    ("G", 2, "3ff57f81294e36a78e3c7d6bb7b8322e5358b5d8998cd7c4b79b885247ea6580"),
    ("E", 6, "1c1def5495d1fb46fe10ed61ac6a0bff77775b683b8aad25f94bcb1482a812b4"),
    ("E", 7, "48cbf1c60fc2409b11eb2c37f62e076141e72b9617d6de0d574f7f04e9bf18d4"),
    ("E", 8, "8ed5f7d8348680720e36203db2a8ab4e0c2e5e258016a1f1ef70bc11a3a591e4"),
    ("F", 4, "9fa255843132a07409e02811fff1d357d31d456657b953687ece7f14aad61a0a"),
]


@pytest.mark.parametrize("series, rank, digest", _CLASSICAL_PINNED,
                         ids=[f"{s}{n}" for s, n, _ in _CLASSICAL_PINNED])
def test_classical_command_is_pinned(capsys, series, rank, digest):
    rs = build_root_system(CartanType(series, rank))
    h = hashlib.sha256()
    for beta in rs.positive_roots:
        code = main(["classical", "--type", series, "--rank", str(rank),
                     "--beta", rs.render_root(beta), "--force", "--format", "json"])
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == digest


def _classical_outputs(capsys, rs):
    out = []
    for beta in rs.positive_roots:
        code = main(["classical", "--type", rs.type.series, "--rank", str(rs.rank),
                     "--beta", rs.render_root(beta), "--force", "--format", "json"])
        out.append((code, capsys.readouterr().out))
    return out


def _positive_constants(cb):
    """{(a, b): N(a, b)} over positive a < b with a + b a root."""
    roots = [r.decomp for r in cb.rs.positive_roots]
    out = {}
    for a, b in combinations(roots, 2):
        s = tuple(map(sum, zip(a, b)))
        if s in cb.pos_index:
            out[(a, b)] = cb.bracket_basis(cb.pos_index[a], cb.pos_index[b])[cb.pos_index[s]]
    return out


@pytest.mark.parametrize("series, rank", [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                                          ("C", 4), ("G", 2)])
def test_folded_realization_gives_the_same_classical_output(capsys, monkeypatch, series, rank):
    # the shipped fold against an independent oracle: the matrix realizations
    # of so(2n+1) and sp(2n), and the hand-typed G2 constants.  Their tables
    # differ in sign convention and in B's short-root normalization, but no
    # output of the command may.
    rs = build_root_system(CartanType(series, rank))
    # the outputs do not see a wrong sign or size of one N, so the folded N
    # must also equal the oracle's up to e_a -> c_a e_a, with c = 1 on the
    # simple roots: N(a, b) c_{a+b} = c_a c_b N'(a, b)
    oracle = _positive_constants(oracle_realization(rs))
    folded = _positive_constants(build_realization(rs))
    c = {r.decomp: F1 for r in rs.simple_roots}
    # by the height of a + b, so that c_a and c_b are known
    for (a, b), n in sorted(oracle.items(), key=lambda item: sum(map(sum, item[0]))):
        s = tuple(map(sum, zip(a, b)))
        c.setdefault(s, c[a] * c[b] * folded[(a, b)] / n)
        assert n * c[s] == c[a] * c[b] * folded[(a, b)], (a, b)
    expected = _classical_outputs(capsys, rs)
    monkeypatch.setattr(cli, "build_realization", oracle_realization)
    assert _classical_outputs(capsys, rs) == expected


def test_folded_f4_classical_pattern_is_pinned(capsys):
    rs, cb = realization("F", 4)
    for i, j, k in combinations(range(cb.dim), 3):
        assert not jacobi_defect(cb, {i: F1}, {j: F1}, {k: F1}), (i, j, k)
    # the 12 admissible (long) roots pass, and so do three short ones; the
    # other 9 short roots fail closure and the master equation
    passing = {str(b) for b in admissible_positive_roots(rs)} | {"a3", "a4", "a3+a4"}
    assert len(passing) == 15
    for beta, (code, out) in zip(rs.positive_roots, _classical_outputs(capsys, rs)):
        checks = json.loads(out)["checks"]
        if str(beta) in passing:
            assert (code, checks) == (0, dict.fromkeys(checks, True)), beta
        else:
            assert (code, checks) == (
                1, {"closure": False, "coideal": True, "master_equation": False}
            ), beta
