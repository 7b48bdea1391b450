"""Helpers for the tests: on root systems, root strings by scan, squared
root lengths and the Coxeter number; on Q(q), regularity at q = 1; on the
quantized Borel algebra, elements from term lists, the quotient basis of one
degree, the algebra under a second word order and the q-commutation transfer
harness; on the classical realization, leg-by-leg oracles for brackets and
the coisotropy check.  No command needs them."""

from fractions import Fraction
from itertools import product

from qcoiso.classical import ClassicalReport, FractionSpan, bivector
from qcoiso.linalg import accumulate, vec_add_scaled
from qcoiso.qfield import peval_one
from qcoiso.rootsys import RootSystemError
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
