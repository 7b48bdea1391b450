"""Helpers on the quantized Borel algebra for the tests: elements from term
lists, the quotient basis of one degree, and the q-commutation transfer
harness.  No command needs them."""

from itertools import product

from qcoiso.linalg import accumulate
from qcoiso.uqalg import NCPoly


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
    if not (alg.nf_is_zero(h1) and alg.nf_is_zero(h2)):
        return "hypothesis-failed"
    return alg.nf_is_zero(concl)
