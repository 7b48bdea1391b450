"""Tensor-square oracles for the tests: the coproduct applied to one leg of
a tensor (coassociativity compares the two), and membership of a tensor in
ideal (x) U + U (x) ideal.  No command needs them."""

from qcoiso.linalg import accumulate
from qcoiso.qfield import RF_ONE
from qcoiso.uqalg import NCPoly, TensorElem


def tensor_coproduct_left(t: TensorElem):
    """Apply the coproduct to the left legs: result keyed by triples."""
    alg = t.alg
    out = {}
    for ((lk, lw), right), c in t.terms.items():
        inner = alg.coproduct(NCPoly(alg, {(lk, lw): RF_ONE}))
        accumulate(out, (((a, b, right), c * c2) for (a, b), c2 in inner.terms.items()))
    return out


def tensor_coproduct_right(t: TensorElem):
    """Apply the coproduct to the right legs: result keyed by triples."""
    alg = t.alg
    out = {}
    for (left, (rk, rw)), c in t.terms.items():
        inner = alg.coproduct(NCPoly(alg, {(rk, rw): RF_ONE}))
        accumulate(out, (((left, a, b), c * c2) for (a, b), c2 in inner.terms.items()))
    return out


def tensor_nf_is_zero(alg, t: TensorElem) -> bool:
    """Whether t lies in ideal (x) U + U (x) ideal."""
    acc = {}
    for ((lk, lw), (rk, rw)), c in t.terms.items():
        rvec = alg.nf_word(rw)
        for bl, cl in alg.nf_word(lw).items():
            accumulate(acc, (((lk, bl, rk, br), c * cl * cr) for br, cr in rvec.items()))
    return not acc
