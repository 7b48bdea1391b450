import random

import pytest

from qcoiso.rootsys import (
    CartanType,
    Root,
    RootSystem,
    RootSystemError,
    admissible_positive_roots,
    build_root_system,
    is_admissible,
    parse_root,
    root_string,
)


def rs_of(series, rank):
    return build_root_system(CartanType(series, rank))


def test_invalid_ranks():
    for series, rank in [("D", 2), ("E", 5), ("F", 3), ("G", 3), ("A", 0)]:
        with pytest.raises(RootSystemError):
            CartanType(series, rank)


def test_root_counts():
    assert len(rs_of("A", 3).positive_roots) == 6  # 12 roots total
    assert len(rs_of("D", 4).positive_roots) == 12  # 24 roots
    assert len(rs_of("B", 3).positive_roots) == 9
    assert len(rs_of("C", 3).positive_roots) == 9
    assert len(rs_of("G", 2).positive_roots) == 6
    assert len(rs_of("F", 4).positive_roots) == 24
    assert len(rs_of("E", 6).positive_roots) == 36


def test_counts_up_to_rank_6():
    for series, ranks in [("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(3, 7))]:
        for n in ranks:
            rs = rs_of(series, n)
            expected = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[series]
            assert len(rs.positive_roots) == expected


def test_g2_positive_roots_golden():
    rs = rs_of("G", 2)
    got = {r.decomp for r in rs.positive_roots}
    assert got == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_g2_cartan_and_symmetrizers():
    rs = rs_of("G", 2)
    assert rs.cartan_matrix == ((2, -3), (-1, 2))
    assert rs.symmetrizers == (1, 3)


def test_symmetrizer_identity():
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]:
        rs = rs_of(series, rank)
        A, d = rs.cartan_matrix, rs.symmetrizers
        for i in range(rank):
            assert A[i][i] == 2
            for j in range(rank):
                assert d[i] * A[i][j] == d[j] * A[j][i]


def test_unsymmetrizable_cartan_data_is_rejected(monkeypatch):
    # the check is a raise, not an assert, so it also holds under python -O
    import qcoiso.rootsys as rootsys

    good = rootsys._cartan_data

    def swapped(t):
        A, d, euclid = good(t)
        return A, tuple(reversed(d)), euclid

    monkeypatch.setattr(rootsys, "_cartan_data", swapped)
    with pytest.raises(RootSystemError, match="do not symmetrize"):
        RootSystem(CartanType("G", 2))


def test_euclidean_cross_check():
    # reflection-closure enumeration must match direct Euclidean enumeration
    for series, rank in [("A", 3), ("B", 3), ("C", 4), ("D", 4)]:
        rs = rs_of(series, rank)
        coords = {tuple(rs.euclid_coords(r)) for r in rs.positive_roots}
        direct = _direct_positive_roots(series, rank)
        assert coords == direct


def _direct_positive_roots(series, n):
    from fractions import Fraction

    def unit(i, dim):
        return tuple(Fraction(1 if k == i else 0) for k in range(dim))

    out = set()
    if series == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                out.add(tuple(a - b for a, b in zip(unit(i, dim), unit(j, dim))))
    else:
        dim = n
        for i in range(n):
            for j in range(i + 1, n):
                ei, ej = unit(i, dim), unit(j, dim)
                out.add(tuple(a - b for a, b in zip(ei, ej)))
                out.add(tuple(a + b for a, b in zip(ei, ej)))
        if series == "B":
            for i in range(n):
                out.add(unit(i, dim))
        if series == "C":
            for i in range(n):
                out.add(tuple(2 * c for c in unit(i, dim)))
    return out


def test_root_string_examples():
    rs = rs_of("A", 2)
    a1, a2 = rs.simple_roots
    assert root_string(rs, a1, a2) == {0, 1}
    # alpha = beta: alpha + 0*beta and alpha - 2*beta = -alpha
    assert root_string(rs, a1, a1) == {-2, 0}
    c2 = rs_of("C", 2)
    alpha = parse_root(c2, "L1-L2")
    beta = parse_root(c2, "2L2")
    assert root_string(c2, alpha, beta) == {0, 1}


def test_root_string_rejects_non_roots():
    rs = rs_of("A", 2)
    with pytest.raises(RootSystemError):
        root_string(rs, Root((2, 0)), rs.simple_roots[0])


def test_admissibility_tables():
    # A_n and D_n: every root; C_n: only 2L_i; B_n: only L_i +/- L_j; F4: none
    for n in range(2, 7):
        rs = rs_of("A", n)
        assert len(admissible_positive_roots(rs)) == len(rs.positive_roots)
    for n in range(3, 7):
        rs = rs_of("D", n)
        assert len(admissible_positive_roots(rs)) == len(rs.positive_roots)
    for n in range(2, 7):
        rs = rs_of("C", n)
        adm = admissible_positive_roots(rs)
        assert len(adm) == n
        for b in adm:
            assert rs.root_length_sq(b) == 4  # the long roots 2L_i
    for n in range(2, 7):
        rs = rs_of("B", n)
        adm = admissible_positive_roots(rs)
        assert len(adm) == n * (n - 1)
        for b in adm:
            assert rs.root_length_sq(b) == 4  # the long roots L_i +/- L_j


def test_is_admissible_matches_the_root_string_definition():
    # is_admissible looks for a root gamma with gamma + beta and gamma + 2*beta
    # roots; the definition asks every string alpha + Z*beta for three
    # consecutive integers
    types = (
        [("A", n) for n in range(1, 8)]
        + [(s, n) for s in "BC" for n in range(2, 7)]
        + [("D", n) for n in range(3, 8)]
        + [("G", 2), ("F", 4), ("E", 6)]
    )
    checked = 0
    for series, rank in types:
        rs = rs_of(series, rank)
        for beta in rs.positive_roots:
            strings = [root_string(rs, Root(d), beta) for d in rs._root_set]
            by_strings = not any(k + 1 in ks and k + 2 in ks for ks in strings for k in ks)
            assert is_admissible(rs, beta) == by_strings, (series, rank, beta)
            checked += 1
    assert checked == 440


def test_f4_string_filter_admits_exactly_the_long_roots():
    # For long beta, |alpha+beta|^2 + |alpha-beta|^2 = 2|alpha|^2 + 2|beta|^2
    # can never split into two root lengths, and alpha + 2*beta is never a
    # root, so no string through a long root holds three consecutive values.
    # Short roots fail the filter as in B_n.  The pinned acceptance table
    # expects an empty F4 answer instead; see the acceptance suite.
    rs = rs_of("F", 4)
    adm = admissible_positive_roots(rs)
    assert len(adm) == 12
    assert all(rs.root_length_sq(b) == 4 for b in adm)
    # independent cross-check on the Euclidean model of F4
    assert _f4_euclid_admissible_count() == 12


def _f4_euclid_admissible_count():
    from fractions import Fraction
    from itertools import product

    roots = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0, 0, 0, 0]
                    v[i], v[j] = si, sj
                    roots.add(tuple(Fraction(x) for x in v))
    for i in range(4):
        for s in (1, -1):
            v = [Fraction(0)] * 4
            v[i] = Fraction(s)
            roots.add(tuple(v))
    for signs in product((1, -1), repeat=4):
        roots.add(tuple(Fraction(s, 2) for s in signs))
    assert len(roots) == 48

    def admissible(beta):
        for alpha in roots:
            ks = {
                k
                for k in range(-4, 5)
                if tuple(a + k * b for a, b in zip(alpha, beta)) in roots
            }
            if any(k + 1 in ks and k + 2 in ks for k in ks):
                return False
        return True

    positives = [r for r in roots if r > tuple([Fraction(0)] * 4)]
    return sum(1 for b in positives if admissible(b))


def test_g2_admissible_are_long():
    rs = rs_of("G", 2)
    adm = admissible_positive_roots(rs)
    assert {r.decomp for r in adm} == {(0, 1), (3, 1), (3, 2)}
    for b in adm:
        assert rs.root_length_sq(b) == 6


def test_e6_all_admissible():
    rs = rs_of("E", 6)
    assert len(admissible_positive_roots(rs)) == 36


def test_admissibility_weyl_invariance():
    rng = random.Random(5)
    for series, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = rs_of(series, rank)
        A = rs.cartan_matrix
        for beta in rs.positive_roots:
            v = list(beta.decomp)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(rank)
                pairing = sum(A[i][j] * v[j] for j in range(rank))
                v[i] -= pairing
            image = Root(tuple(v)) if any(c > 0 for c in v) else Root(tuple(-c for c in v))
            assert is_admissible(rs, image) == is_admissible(rs, beta)


def test_parse_and_render():
    a3 = rs_of("A", 3)
    r = parse_root(a3, "L1-L4")
    assert r.decomp == (1, 1, 1)
    assert a3.render_root(r) == "L1-L4"
    c2 = rs_of("C", 2)
    assert parse_root(c2, "2L1").decomp == (2, 1)
    g2 = rs_of("G", 2)
    assert parse_root(g2, "3a1+2a2").decomp == (3, 2)
    assert parse_root(g2, "a2").decomp == (0, 1)
    d4 = rs_of("D", 4)
    assert parse_root(d4, "L1+L2").decomp == (1, 2, 1, 1)
    assert parse_root(d4, "L1+L4").decomp == (1, 1, 0, 1)
    with pytest.raises(RootSystemError):
        parse_root(a3, "L1-L9")
    with pytest.raises(RootSystemError):
        parse_root(a3, "L1+L2")  # not a root of A3
    with pytest.raises(RootSystemError):
        parse_root(a3, "")


def test_parse_root_rejects_negative_roots():
    # a negative root is a root, so find_root accepts it; every consumer of a
    # literal indexes e_beta over the positive roots
    for series, rank, lit, name in [("A", 3, "L4-L1", "-a1-a2-a3"), ("A", 3, "-a2", "-a2"),
                                    ("C", 2, "-2L1", "-2a1-a2"), ("G", 2, "-3a1-2a2", "-3a1-2a2")]:
        rs = rs_of(series, rank)
        with pytest.raises(RootSystemError, match="negative root") as err:
            parse_root(rs, lit)
        assert repr(lit) in str(err.value) and name in str(err.value)


def test_deterministic_order_is_lexicographic():
    rs = rs_of("B", 2)
    decomps = [r.decomp for r in rs.positive_roots]
    assert decomps == sorted(decomps)


def test_coxeter_numbers():
    assert rs_of("A", 2).coxeter_number == 3
    assert rs_of("E", 6).coxeter_number == 12
    assert rs_of("G", 2).coxeter_number == 6
