"""Helpers for the tests: on root systems, root strings by scan, squared
root lengths and the Coxeter number; on Q(q), regularity at q = 1; on the
quantized Borel algebra, elements from term lists, the quotient basis of one
degree, the algebra under a second word order, a word-by-word reference fold
and the q-commutation transfer harness; on the classical realization, leg-by-leg oracles for brackets and
the coisotropy check, and bases of A-D and G2 built without the lattice
cocycle (matrix realizations, the hand-typed G2 constants); good Lyndon words
as a prediction of the table bases.  No command needs them."""

from fractions import Fraction
from itertools import combinations, product
from operator import sub

from qcoiso.classical import (
    ChevalleyBasis,
    FractionSpan,
    _closed_form_basis,
    bivector,
)
from qcoiso.linalg import accumulate, vec_add_scaled
from qcoiso.qfield import RF_ONE, peval_one
from qcoiso.rootsys import RootSystemError, render_simple_form
from qcoiso.uqalg import NCPoly, UqBorel

STRING_SCAN_BOUND = 4


def root_string(rs, alpha, beta) -> set:
    """The exact set {k in Z : alpha + k*beta in R}, by bounded scan."""
    for r in (alpha, beta):
        if not rs.is_root(r):
            raise RootSystemError(f"{render_simple_form(r)} is not a root of {rs.type}")
    hits = set()
    n = rs.rank
    for k in range(-STRING_SCAN_BOUND, STRING_SCAN_BOUND + 1):
        if rs.is_root(tuple(alpha[i] + k * beta[i] for i in range(n))):
            hits.add(k)
    # finite-type strings fit well inside the scan window
    for k in (-(STRING_SCAN_BOUND + 1), STRING_SCAN_BOUND + 1):
        if rs.is_root(tuple(alpha[i] + k * beta[i] for i in range(n))):
            raise RootSystemError("root string not saturated within scan bound")
    return hits


def root_length_sq(rs, root) -> int:
    return rs.inner(root, root)


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


def reference_nf_word(alg, word) -> dict:
    """The normal form of a raw word, folded on its own from the empty word,
    one letter at a time through the raise maps of the algebra's tables."""
    vec, mu = {(): RF_ONE}, [0] * alg.rank
    for l in word:
        mu[l] += 1
        rm = alg.table(tuple(mu)).raise_map[l]
        nxt = {}
        for b, c in vec.items():
            vec_add_scaled(nxt, rm[b], c)
        vec = nxt
    return vec


def reference_nf_components(alg, x) -> dict:
    """`UqBorel.nf_components` word by word: {(kexp, content): vector} over
    the nonzero components, each the sum of c * reference_nf_word(w)."""
    out = {}
    for (kexp, word), c in x.terms.items():
        key = (kexp, alg.content_of(word))
        vec_add_scaled(out.setdefault(key, {}), reference_nf_word(alg, word), c)
    return {key: vec for key, vec in out.items() if vec}


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


def check_coisotropic_direct(cb, pi: dict, gens: list) -> dict:
    """check_coisotropic from its definition: closure of the span, then for
    every generator g the whole [g, pi], both legs of every term projected
    onto the quotient by the span."""
    one = Fraction(1)
    span = FractionSpan()
    for g in gens:
        span.add(g)
    closure = all(
        span.contains(bracket_by_legs(cb, x, y)) for x, y in combinations(gens, 2)
    )

    def projected(g):
        terms = []
        for (i, j), c in ad_bivector_by_legs(cb, g, pi).items():
            p_i, p_j = span.reduce({i: one})[0], span.reduce({j: one})[0]
            terms.extend((a, b, c * va * vb) for a, va in p_i.items() for b, vb in p_j.items())
        return bivector(terms)

    coideal = not any(projected(g) for g in gens)
    return {"closure": closure, "coideal": coideal}


def good_lyndon_words(rs, pick=max):
    """{positive root: its good Lyndon word} over 0-based
    letters (Lalonde-Ram 1995; Leclerc 2004, section 4): a simple root's word
    is its letter; any other root's is the lexicographic maximum of
    l(g1) l(g2) over splittings into positive roots g1 + g2 with
    l(g1) < l(g2).  pick=min is a control that must disagree with the tables."""
    words = {}
    for d in sorted(rs.positive_roots, key=sum):
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


def root_matrices(rs) -> dict:
    """The sparse matrix of e_a in the standard realization, per positive root a.

    sl(n+1) acts on the weights L_1..L_{n+1}; sp(2n) and so(2n) on L_1..L_n,
    -L_1..-L_n; so(2n+1) has one more weight 0 at index 2n.  In all four
    f_a is the transpose of e_a, so only the e-matrices are kept.  Entries
    are the integers 1 and -1.
    """
    series, n = rs.type.series, rs.rank
    out = {}
    for r in rs.positive_roots:
        coords = rs.euclid_coords(r)
        pos = [k for k, c in enumerate(coords) if c > 0]
        neg = [k for k, c in enumerate(coords) if c < 0]
        if series == "A":
            mat = {(pos[0], neg[0]): 1}
        elif neg:  # L_i - L_j
            i, j = pos[0], neg[0]
            mat = {(i, j): 1, (n + j, n + i): -1}
        elif len(pos) == 2:  # L_i + L_j, i < j
            i, j = pos
            mat = {(i, n + j): 1, (j, n + i): 1 if series == "C" else -1}
        elif series == "C":  # 2L_i
            mat = {(pos[0], n + pos[0]): 1}
        else:  # L_i, type B
            mat = {(pos[0], 2 * n): 1, (2 * n, n + pos[0]): -1}
        out[r] = mat
    return out


def mat_bracket(a, b):
    """ab - ba for sparse matrices keyed by (row, column)."""
    out = {}
    for (r, c), v in a.items():
        for (r2, c2), w in b.items():
            if c == r2:
                accumulate(out, [((r, c2), v * w)])
            if c2 == r:
                accumulate(out, [((r2, c), -v * w)])
    return out


# Positive-part constants of G2 over simple roots a=(1,0) short, b=(0,1) long,
# anchored at [x_b, x_a] = x_{a+b} and closed under the Jacobi identity:
#   [x_{a+b}, x_a] = 2 x_{2a+b},  [x_{2a+b}, x_a] = 3 x_{3a+b},
#   [x_{3a+b}, x_b] = x_{3a+2b},  [x_{a+b}, x_{2a+b}] = 3 x_{3a+2b}.
G2_POS_CONSTANTS = {
    ((0, 1), (1, 0)): 1,
    ((1, 1), (1, 0)): 2,
    ((2, 1), (1, 0)): 3,
    ((3, 1), (0, 1)): 1,
    ((1, 1), (2, 1)): 3,
}


def oracle_realization(rs):
    """The basis of an A-D type or G2 from sources independent of the lattice
    cocycle and its fold.

    For A-D every bracket is a matrix commutator in the standard realization,
    written over e_a, f_a = e_a^T and the simple coroots h_i = c [e_i, f_i],
    with c such that [h_i, e_i] = 2 e_i; no structure constant is derived.
    [e_a, f_a] is then the coroot h_a, except on the short roots of B, where
    it is h_a / 2.  G2 takes the hand-typed constants above through
    `_closed_form_basis`."""
    if rs.type.series == "G":
        return _closed_form_basis(rs, G2_POS_CONSTANTS)
    mats = root_matrices(rs)
    positives = rs.positive_roots
    es = [{k: Fraction(v) for k, v in mats[a].items()} for a in positives]
    fs = [{(c, r): v for (r, c), v in e.items()} for e in es]
    hs = []
    for simple in rs.simple_roots:
        j = positives.index(simple)
        e, t = es[j], mat_bracket(es[j], fs[j])
        cell = next(iter(e))
        weight = mat_bracket(t, e)[cell] / e[cell]
        hs.append({k: 2 * v / weight for k, v in t.items()})
    basis = es + fs + hs
    span = FractionSpan()
    for i, x in enumerate(basis):
        span.add(x, {i: Fraction(1)})
    rows = [{} for _ in basis]
    for i, j in combinations(range(len(basis)), 2):
        comm = mat_bracket(basis[i], basis[j])
        if comm:
            vec = span.solve(comm)
            rows[i][j], rows[j][i] = vec, {k: -v for k, v in vec.items()}
    return ChevalleyBasis(rs=rs, rows=rows, pos_index={a: i for i, a in enumerate(positives)})
