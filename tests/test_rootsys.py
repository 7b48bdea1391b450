import hashlib
import random

import pytest

from algebra_helpers import coxeter_number, root_length_sq, root_string
from qcoiso.rootsys import (
    _cartan_from_euclid,
    CartanType,
    RootSystem,
    RootSystemError,
    admissible_positive_roots,
    build_root_system,
    is_admissible,
    parse_root,
    render_simple_form,
)


def rs_of(series, rank):
    return build_root_system(CartanType(series, rank))


def test_invalid_ranks():
    # a series is one of the seven letters, not a substring of "ABCDEFG"
    for series, rank in [("D", 2), ("E", 5), ("F", 3), ("G", 3), ("A", 0), ("AB", 3), ("", 3)]:
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
    got = set(rs.positive_roots)
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


def test_nonintegral_cartan_entry_is_rejected():
    # (a1, a2) = 3 and (a1, a1) = 9 give a_12 = 2/3; a raise, so it also
    # holds under python -O
    with pytest.raises(RootSystemError, match="non-integral Cartan"):
        _cartan_from_euclid([(3, 0), (1, 1)], (1, 1))


def test_nonintegral_symmetrizer_is_rejected():
    # orthogonal roots of squared lengths 2 and 3: integral Cartan matrix,
    # symmetrizer 3/2
    with pytest.raises(RootSystemError, match="non-integral symmetrizer"):
        _cartan_from_euclid([(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)], (1,) * 5)


# sha256 per type over the Cartan matrix, the symmetrizers and, for each
# positive root in order, its decomposition, Euclidean coordinates, rendering
# and admissibility (see _rootsys_digest)
ROOTSYS_DIGESTS = {
    "A1": "175645294c2fc662c7d2bdab1287fb077e193705a84e7647899a4116fa132e37",
    "A2": "5841bcfcd406338d712c895705c8470cec110595cba13c829bf21503b763f90d",
    "A3": "c9fc43333360499613b912f59a71798fa6c6ed3e6d33ba344674e0883df8b2af",
    "A4": "c2a3435a661ef66729e5da991db175d8fc783424d417ddc035aa0536a4b6d290",
    "A5": "ba42739a29d8bc6acef9282c3d21da32ba87ab7c84ab7376f74f06325e3df6fe",
    "A6": "9f740812323bc9f926f1baf239769e4f04c0e2df921e88c5e580b8ee55d052d5",
    "A7": "1d26287b8ac80f041582bad91987d74bdf2e91f0ec3e2468e4b31efaa6275a61",
    "B2": "dded875ac97da6f76325784b8c505b5fdb0aeeee838a379a6b0798eed8e384f1",
    "B3": "b8d5714df1a1a0ceb41252868bb35690f6851c4fdbcbd10e9b8d4ad729295ad3",
    "B4": "6488baf92a9a31c67fd0f2c60bfe966b21da5fef0f85f4fa8ec9b909f75fba9d",
    "B5": "166cb07a2f54fdd0f2f44d60de59c171d20f3d29984561cef22a7c769db84b48",
    "B6": "2115dd1addd8f3f613274a9eb38ffe54d9e4cf47baf3c074d2abc19b63c140b5",
    "C2": "84dd8365ff60e215eee195bd6442186c0b34eeb3b09fb44bf994a77cdd2f0a84",
    "C3": "23d3f0453c87637f059805983d72290412d0213725a63fe2a00d85eecd48785d",
    "C4": "82f69fa3242587dde5d243586d09c63128452af998aa9af41eefb3b0baaae90c",
    "C5": "edc19824a0342ef637b53ad1d4c5fc081cacaa4debca0d06b0a10e5f0d54b579",
    "C6": "e876f66635d4df35a1bf9a9491a830e57699c660a2f21ea753b8407a7dbe5807",
    "D3": "e5c2cc2abcefc88b5a2e35cbb055424c8828510c5ed869338bad2179646fb041",
    "D4": "506f26f948f56baf717c75d3e32f3118586292845fdf7128e35ce29cf873a22e",
    "D5": "1c575dc3f668cdc7f585e6c757a064fe1460d99702f57567b317a2c480be8b63",
    "D6": "6fb18abe46303351330b7a7122f2f8415c6ea4fd21884654b0b8ae5251dd8983",
    "D7": "56dec1e85c432b4f69b18a35d0d6774ecf6067876f75af7c54535e4305633f40",
    "G2": "eff5d098ed5cec513e287a6eca577b17ff7ba53f54d66a2cb2dc9e0325086f58",
    "F4": "b9a4b0f8430faf72e45cd646c8e6d75286ecd0432e9e56c412e943c405ee8b9d",
    "E6": "4430cb258fb189d63760bb1bcd31ca1e38391d102fdec19d929be346b5b4a9c0",
    "E7": "7f28696932ef68a773adddfc5ecf2ac6297374a6545692d69206ee6c9f9da3be",
    "E8": "08d874a74d6fe0c2ac6b5cb22a4ed3bd39d35f234b44263f097522faa155f5f2",
}


@pytest.mark.parametrize("name", sorted(ROOTSYS_DIGESTS))
def test_root_system_data_is_pinned(name):
    assert _rootsys_digest(name[0], int(name[1:])) == ROOTSYS_DIGESTS[name]


def _rootsys_digest(series, rank):
    rs = rs_of(series, rank)
    lines = [repr(rs.cartan_matrix), repr(rs.symmetrizers)]
    for r in rs.positive_roots:
        coords = rs.euclid_coords(r)
        rendered = rs.render_root(r)
        # both literal forms parse back to the root
        assert parse_root(rs, rendered) == r and parse_root(rs, render_simple_form(r)) == r
        lines.append(" ".join([
            repr(r),
            "-" if coords is None else ",".join(map(str, coords)),
            rendered,
            str(is_admissible(rs, r)),
        ]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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
        root_string(rs, (2, 0), rs.simple_roots[0])
    with pytest.raises(RootSystemError, match=r"^2a1 is not a root of A2$"):
        is_admissible(rs, (2, 0))


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
            assert root_length_sq(rs, b) == 4  # the long roots 2L_i
    for n in range(2, 7):
        rs = rs_of("B", n)
        adm = admissible_positive_roots(rs)
        assert len(adm) == n * (n - 1)
        for b in adm:
            assert root_length_sq(rs, b) == 4  # the long roots L_i +/- L_j


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
            strings = [root_string(rs, d, beta) for d in rs._root_set]
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
    assert all(root_length_sq(rs, b) == 4 for b in adm)
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
    assert set(adm) == {(0, 1), (3, 1), (3, 2)}
    for b in adm:
        assert root_length_sq(rs, b) == 6


def test_e6_all_admissible():
    rs = rs_of("E", 6)
    assert len(admissible_positive_roots(rs)) == 36


@pytest.mark.parametrize("rank, count, highest, coxeter", [
    (6, 36, (1, 2, 2, 3, 2, 1), 12),
    (7, 63, (2, 2, 3, 4, 3, 2, 1), 18),
    (8, 120, (2, 3, 4, 6, 5, 4, 3, 2), 30),
])
def test_e_series_follows_bourbaki(rank, count, highest, coxeter):
    # the highest root in Bourbaki's labelling (Plates V-VII) fixes the
    # node order; in a simply-laced type no root string holds three roots
    rs = rs_of("E", rank)
    assert len(rs.positive_roots) == count
    assert max(rs.positive_roots, key=sum) == highest
    assert coxeter_number(rs) == coxeter
    assert len(admissible_positive_roots(rs)) == count


def test_admissibility_weyl_invariance():
    rng = random.Random(5)
    for series, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = rs_of(series, rank)
        A = rs.cartan_matrix
        for beta in rs.positive_roots:
            v = list(beta)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(rank)
                pairing = sum(A[i][j] * v[j] for j in range(rank))
                v[i] -= pairing
            image = tuple(v) if any(c > 0 for c in v) else tuple(-c for c in v)
            assert is_admissible(rs, image) == is_admissible(rs, beta)


def test_parse_and_render():
    a3 = rs_of("A", 3)
    r = parse_root(a3, "L1-L4")
    assert r == (1, 1, 1)
    assert a3.render_root(r) == "L1-L4"
    c2 = rs_of("C", 2)
    assert parse_root(c2, "2L1") == (2, 1)
    g2 = rs_of("G", 2)
    assert parse_root(g2, "3a1+2a2") == (3, 2)
    assert parse_root(g2, "a2") == (0, 1)
    d4 = rs_of("D", 4)
    assert parse_root(d4, "L1+L2") == (1, 2, 1, 1)
    assert parse_root(d4, "L1+L4") == (1, 1, 0, 1)
    with pytest.raises(RootSystemError):
        parse_root(a3, "L1-L9")
    with pytest.raises(RootSystemError):
        parse_root(a3, "L1+L2")  # not a root of A3
    with pytest.raises(RootSystemError):
        parse_root(a3, "")
    # every term after the first needs its sign
    for text in ("a1a2", "a1 a2"):
        with pytest.raises(RootSystemError, match="cannot parse root literal"):
            parse_root(a3, text)


def test_parse_root_rejects_negative_roots():
    # a negative root is a root, so find_root accepts it; every consumer of a
    # literal indexes e_beta over the positive roots
    for series, rank, lit, name in [("A", 3, "L4-L1", "-a1-a2-a3"), ("A", 3, "-a2", "-a2"),
                                    ("C", 2, "-2L1", "-2a1-a2"), ("G", 2, "-3a1-2a2", "-3a1-2a2")]:
        rs = rs_of(series, rank)
        with pytest.raises(RootSystemError, match="negative root") as err:
            parse_root(rs, lit)
        assert repr(lit) in str(err.value) and name in str(err.value)


def _l_literal(rs, root):
    """The L-literal of a root with integral Euclidean coordinates, or None."""
    coords = rs.euclid_coords(root)
    if any(c.denominator != 1 for c in coords):
        return None
    return "".join(
        f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else abs(c)}L{i + 1}"
        for i, c in enumerate(coords)
        if c
    )


def test_literals_are_looked_up_among_the_roots():
    # every positive root parses back from its rendering, its a-form and its
    # L-literal; every negative root is refused as negative in both forms
    types = (
        [("A", n) for n in range(1, 8)]
        + [(s, n) for s in "BC" for n in range(2, 7)]
        + [("D", n) for n in range(3, 8)]
        + [("G", 2)]
    )
    literals = 0
    for series, rank in types:
        rs = rs_of(series, rank)
        for root in rs.positive_roots:
            texts = [rs.render_root(root), render_simple_form(root), _l_literal(rs, root)]
            for text in filter(None, texts):
                assert parse_root(rs, text) == root, (series, rank, text)
            literals += texts[2] is not None
            negative = tuple(-c for c in root)
            for text in filter(None, [render_simple_form(negative), _l_literal(rs, negative)]):
                with pytest.raises(RootSystemError, match="is the negative root"):
                    parse_root(rs, text)
    # every positive root of A-D (374) has one, and of G2 the two with
    # integral coordinates, a1 = L1 and 3a1+2a2 = L2
    assert literals == 376


def test_literals_outside_the_roots_are_named_in_the_error():
    a3 = rs_of("A", 3)
    # in the root lattice (2a1) and outside it
    for text in ("2L1-2L2", "L1+L2"):
        with pytest.raises(RootSystemError) as err:
            parse_root(a3, text)
        assert str(err.value) == f"{text!r} is not a root of A3"


def test_deterministic_order_is_lexicographic():
    rs = rs_of("B", 2)
    decomps = rs.positive_roots
    assert decomps == sorted(decomps)


def test_coxeter_numbers():
    assert coxeter_number(rs_of("A", 2)) == 3
    assert coxeter_number(rs_of("E", 6)) == 12
    assert coxeter_number(rs_of("G", 2)) == 6
