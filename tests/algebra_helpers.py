"""Helpers for the tests: on root systems, root strings by scan, squared
root lengths and the Coxeter number; on Q(q), regularity at q = 1; on the
quantized Borel algebra, elements from term lists, the quotient basis of one
degree, the algebra under a second word order and the q-commutation transfer
harness; on the classical realization, leg-by-leg oracles for brackets and
the coisotropy check, and the realization of a non-simply-laced type folded
from its simply-laced parent; good Lyndon words as a prediction of the table
bases.  No command needs them."""

from fractions import Fraction
from itertools import combinations, product
from operator import sub

from qcoiso.classical import (
    ClassicalReport,
    FractionSpan,
    _closed_form_basis,
    _simply_laced_pos_constants,
    bivector,
)
from qcoiso.linalg import accumulate, vec_add_scaled
from qcoiso.qfield import peval_one
from qcoiso.rootsys import CartanType, RootSystemError, build_root_system
from qcoiso.uqalg import NCPoly, UqBorel

STRING_SCAN_BOUND = 4


def root_string(rs, alpha, beta) -> set:
    """The exact set {k in Z : alpha + k*beta in R}, by bounded scan."""
    for r in (alpha, beta):
        if not rs.is_root(r.decomp):
            raise RootSystemError(f"{r} is not a root of {rs.type}")
    hits = set()
    n = rs.rank
    a, b = alpha.decomp, beta.decomp
    for k in range(-STRING_SCAN_BOUND, STRING_SCAN_BOUND + 1):
        if rs.is_root(tuple(a[i] + k * b[i] for i in range(n))):
            hits.add(k)
    # finite-type strings fit well inside the scan window
    for k in (-(STRING_SCAN_BOUND + 1), STRING_SCAN_BOUND + 1):
        if rs.is_root(tuple(a[i] + k * b[i] for i in range(n))):
            raise RootSystemError("root string not saturated within scan bound")
    return hits


def root_length_sq(rs, root) -> int:
    return rs.inner(root.decomp, root.decomp)


def coxeter_number(rs) -> int:
    """The number of roots over the rank."""
    return len(rs._root_set) // rs.rank


def regular_at_one(f) -> bool:
    """True when the Q(q) value f has no pole at q = 1."""
    return peval_one(f.den) != 0


class RevlexBorel(UqBorel):
    """The algebra with its table words ordered from the right, reversed:
    dimensions and verdicts must not depend on the word order."""

    def order_key(self, word):
        return tuple(-l for l in reversed(word))


def from_terms(alg, terms) -> NCPoly:
    """The element sum(c * K^k E_w) over (k, w, c) triples."""
    return NCPoly(alg, accumulate({}, (((tuple(k), tuple(w)), c) for k, w, c in terms)))


def quotient_basis(alg, degree: int):
    """Words representing a basis of the degree-d quotient component."""
    out = []
    for mu in product(range(degree + 1), repeat=alg.rank):
        if sum(mu) == degree:
            out.extend(alg.table(mu).basis)
    out.sort(key=alg.order_key)
    return out


def check_qcommute_closure(alg, a, b, c, pa, pb, pc, mirror=False):
    """If [a,b]_{q^pa} and [a,c]_{q^pb} lie in the ideal, then so does
    [a, [b,c]_{q^pc}]_{q^{pa+pb}}; with mirror=True the hypotheses pair the
    common element on the right instead.

    Returns "hypothesis-failed", True, or False.
    """
    br = alg.q_bracket
    if not mirror:
        h1, h2 = br(a, b, pa), br(a, c, pb)
        concl = br(a, br(b, c, pc), pa + pb)
    else:
        h1, h2 = br(a, c, pa), br(b, c, pb)
        concl = br(br(a, b, pc), c, pa + pb)
    if alg.nf_components(h1) or alg.nf_components(h2):
        return "hypothesis-failed"
    return not alg.nf_components(concl)


def bracket_by_legs(cb, x: dict, y: dict) -> dict:
    """[x, y] = sum x_i y_j [x_i, x_j], one table entry per pair of indices."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            vec_add_scaled(out, cb.bracket_basis(i, j), xi * yj)
    return out


def ad_bivector_by_legs(cb, x: dict, b: dict) -> dict:
    """[x, b] = sum c ([x, x_i] ^ x_j + x_i ^ [x, x_j]) over the terms of b,
    each leg bracketed on its own."""
    one = Fraction(1)
    terms = []
    for (i, j), c in b.items():
        terms.extend((k, j, c * v) for k, v in bracket_by_legs(cb, x, {i: one}).items())
        terms.extend((i, k, c * v) for k, v in bracket_by_legs(cb, x, {j: one}).items())
    return bivector(terms)


def check_coisotropic_direct(cb, pi: dict, gens: list) -> ClassicalReport:
    """check_coisotropic from its definition: closure of the span, then for
    every generator g the whole [g, pi], both legs of every term projected
    onto the quotient by the span."""
    one = Fraction(1)
    span = FractionSpan()
    for g in gens:
        span.add(g)
    report = ClassicalReport(closure_ok=True, coideal_ok=True)
    pairs = ((i, j) for i in range(len(gens)) for j in range(i + 1, len(gens)))
    for i, j in pairs:
        if not span.contains(bracket_by_legs(cb, gens[i], gens[j])):
            report.closure_ok, report.failing_pair = False, (i, j)
            break
    for gi, g in enumerate(gens):
        terms = []
        for (i, j), c in ad_bivector_by_legs(cb, g, pi).items():
            p_i, p_j = span.reduce({i: one})[0], span.reduce({j: one})[0]
            terms.extend((a, b, c * va * vb) for a, va in p_i.items() for b, vb in p_j.items())
        if bivector(terms):
            report.coideal_ok, report.failing_generator = False, gi
            break
    return report


def good_lyndon_words(rs, pick=max):
    """{positive root decomposition: its good Lyndon word} over 0-based
    letters (Lalonde-Ram 1995; Leclerc 2004, section 4): a simple root's word
    is its letter; any other root's is the lexicographic maximum of
    l(g1) l(g2) over splittings into positive roots g1 + g2 with
    l(g1) < l(g2).  pick=min is a control that must disagree with the tables."""
    words = {}
    for root in sorted(rs.positive_roots, key=lambda r: sum(r.decomp)):
        d = root.decomp
        if sum(d) == 1:
            words[d] = (d.index(1),)
            continue
        splits = ((g1, tuple(map(sub, d, g1))) for g1 in words)
        words[d] = pick(
            words[g1] + words[g2]
            for g1, g2 in splits
            if g2 in words and words[g1] < words[g2]
        )
    return words


def lyndon_basis(words, mu, nonincreasing=True):
    """The sorted concatenations l1 l2 ... of good words with l1 >= l2 >= ...
    and content mu; nonincreasing=False (l1 <= l2 <= ...) is a control."""
    out = []

    def extend(prefix, rest, last):
        if not any(rest):
            out.append(prefix)
            return
        for d, w in words.items():
            in_order = last is None or (w <= last if nonincreasing else w >= last)
            if in_order and all(a <= b for a, b in zip(d, rest)):
                extend(prefix + w, tuple(map(sub, rest, d)), w)

    extend((), tuple(mu), None)
    return sorted(out)


# non-simply-laced type -> (simply-laced parent, its diagram automorphism
# sigma on 0-based nodes, the folded node of each parent node)
_FOLDS = {
    "B": lambda n: (CartanType("D", n + 1), [*range(n - 1), n, n - 1], [*range(n), n - 1]),
    "C": lambda n: (
        CartanType("A", 2 * n - 1),
        [2 * n - 2 - i for i in range(2 * n - 1)],
        [min(i, 2 * n - 2 - i) for i in range(2 * n - 1)],
    ),
    "G": lambda n: (CartanType("D", 4), [2, 1, 3, 0], [0, 1, 0, 0]),
    "F": lambda n: (CartanType("E", 6), [5, 1, 4, 3, 2, 0], [3, 0, 2, 1, 2, 3]),
}


def folded_realization(rs):
    """The realization of B_n, C_n, G2 or F4 as the sigma-fixed subalgebra of
    its simply-laced parent (D_{n+1}, A_{2n-1}, D4, E6) built from the
    parent's lattice cocycle (Carter, Simple Groups of Lie Type, ch. 13; Kac,
    Infinite-Dimensional Lie Algebras, 7.9).

    The automorphism with sigma(e_i) = e_{sigma i} on simple roots maps e_b to
    s(b) e_{sigma b}; s is fixed by induction on height, from
    s(g + a_i) = s(g) N(sigma g, a_{sigma i}) / N(g, a_i).  e_a is the orbit
    sum of sigma^k(e_b) over the parent roots b folding to a, N(a, b) is read
    off [e_a, e_b] and n(a) = (e_a, f_a) is the orbit size."""
    parent, sigma, node = _FOLDS[rs.type.series](rs.rank)
    prs = build_root_system(parent)
    pcb = _closed_form_basis(prs, _simply_laced_pos_constants(prs))
    idx, one = pcb.pos_index, Fraction(1)

    def moved(b):
        out = [0] * len(b)
        for i, c in enumerate(b):
            out[sigma[i]] += c
        return tuple(out)

    def unit(i):
        return tuple(int(k == i) for k in range(prs.rank))

    def n_const(x, i):
        """N(x, a_i) of the parent."""
        s = tuple(map(sum, zip(x, unit(i))))
        return pcb.bracket({idx[x]: one}, {idx[unit(i)]: one})[idx[s]]

    sign = {}
    for root in sorted(prs.positive_roots, key=lambda r: sum(r.decomp)):
        b = root.decomp
        if sum(b) == 1:
            sign[b] = one
            continue
        for i in range(prs.rank):
            g = tuple(map(sub, b, unit(i)))
            if prs.is_root(g):
                break
        sign[b] = sign[g] * n_const(moved(g), sigma[i]) / n_const(g, i)
    vec = {}
    for root in prs.positive_roots:
        a = tuple(sum(c for i, c in enumerate(root.decomp) if node[i] == k) for k in range(rs.rank))
        if a in vec:
            continue
        vec[a], b, c = {}, root.decomp, one
        while idx[b] not in vec[a]:
            vec[a][idx[b]] = c
            b, c = moved(b), c * sign[b]
        if c != 1:
            raise AssertionError(f"sigma does not fix the orbit sum of e_{root}")
    N = {}
    for a, b in combinations([r.decomp for r in rs.positive_roots], 2):
        s = tuple(map(sum, zip(a, b)))
        if s in vec:
            bracket = pcb.bracket(vec[a], vec[b])
            k = next(iter(vec[s]))
            c = bracket.get(k, 0) / vec[s][k]
            if bracket != {j: c * x for j, x in vec[s].items()}:
                raise AssertionError(f"[e_{a}, e_{b}] is not a multiple of e_{s}")
            N[(a, b)] = c
    return _closed_form_basis(rs, N, {a: Fraction(len(v)) for a, v in vec.items()})
