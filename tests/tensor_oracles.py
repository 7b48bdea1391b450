"""Tensor-square oracles for the tests.  A tensor is the coproduct's term
dict {(left term, right term): coeff}.  Here are the tensor of two elements,
the product and the difference of two tensors, the coproduct applied to one
leg of a tensor (coassociativity compares the two), and membership of a
tensor in ideal (x) U + U (x) ideal.  No command needs them."""

from qcoiso.linalg import accumulate, vec_add_scaled
from qcoiso.qfield import RF_ONE
from qcoiso.uqalg import NCPoly


def tensor(a: NCPoly, b: NCPoly) -> dict:
    """a (x) b."""
    return {(t1, t2): c1 * c2 for t1, c1 in a.terms.items() for t2, c2 in b.terms.items()}


def tensor_mul(alg, s: dict, t: dict) -> dict:
    """The product of two tensors, leg by leg."""
    tm = alg.term_mul
    pairs = (
        (tm(l1, l2), tm(r1, r2), c1 * c2)
        for (l1, r1), c1 in s.items()
        for (l2, r2), c2 in t.items()
    )
    return accumulate({}, (((lt, rt), c * lc * rc) for (lt, lc), (rt, rc), c in pairs))


def tensor_sub(s: dict, t: dict) -> dict:
    """s - t."""
    return vec_add_scaled(dict(s), {k: -c for k, c in t.items()})


def tensor_coproduct_left(alg, t: dict):
    """Apply the coproduct to the left legs: result keyed by triples."""
    out = {}
    for ((lk, lw), right), c in t.items():
        inner = alg.coproduct(NCPoly(alg, {(lk, lw): RF_ONE}))
        accumulate(out, (((a, b, right), c * c2) for (a, b), c2 in inner.items()))
    return out


def tensor_coproduct_right(alg, t: dict):
    """Apply the coproduct to the right legs: result keyed by triples."""
    out = {}
    for (left, (rk, rw)), c in t.items():
        inner = alg.coproduct(NCPoly(alg, {(rk, rw): RF_ONE}))
        accumulate(out, (((left, a, b), c * c2) for (a, b), c2 in inner.items()))
    return out


def tensor_nf_is_zero(alg, t: dict) -> bool:
    """Whether t lies in ideal (x) U + U (x) ideal."""
    acc = {}
    for ((lk, lw), (rk, rw)), c in t.items():
        rvec = alg.nf_word(rw)
        for bl, cl in alg.nf_word(lw).items():
            accumulate(acc, (((lk, bl, rk, br), c * cl * cr) for br, cr in rvec.items()))
    return not acc
