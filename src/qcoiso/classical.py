"""Classical semisimple Lie algebras: realizations, the r-matrix, coisotropy.

Every algebra is presented through a Chevalley basis (root vectors e_alpha,
f_alpha for each positive root, plus the simple coroots h_i) with exact
rational structure constants, built by one rule for every type.  One closed
form (_closed_form_basis) writes the whole bracket table from the structure
constants N(a, b) of [e_a, e_b] = N(a, b) e_{a+b} on positive roots, with
[e_alpha, f_alpha] = h_alpha, the coroot of alpha, on every root.  The
simply-laced types A, D and E take N from the lattice 2-cocycle sign of
their Cartan matrix; B_n, C_n, G2 and F4 take N from the subalgebra of their
simply-laced parent (D_{n+1}, A_{2n-1}, D4, E6) fixed by a diagram
automorphism, the same cocycle folded.

The table and the r-matrix are computed from integer root data: the cocycle
signs, Cartan matrix and form pairings are ints, each mixed bracket comes
from one nonzero N(a, b), and a Fraction is built only where a coefficient
is stored.  The table is sparse and antisymmetric: row i holds [x_i, x_j]
for each j with a nonzero bracket, in both orders, so a bracket is a walk
over rows and a zero bracket is simply absent ({}).  killing_lambda reads
alpha(h) off the table entry [e_alpha, f_alpha] and takes the pairing sum
over the positive roots from one constant of the root system; no trace of
ad is formed.

The basis keeps the positive-root index the table was written with, and
render_element renders the name of each basis vector it prints (e[root],
f[root], h<k>) on demand.

Elements are sparse coefficient dicts over the basis.  Bivectors (antisymmetric
two-tensors) are dicts keyed by index pairs (i, j) with i < j.  The coideal
check is linear in the generator: [g, pi] = sum_k g_k [x_k, pi], so each
[x_k, pi] is projected onto the quotient by the span once per check.  The
closure and coideal checks return one form, {"closure": bool, "coideal":
bool}, the dict the `classical` command prints under "checks" and that
verification reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from operator import add, mul, sub

from .linalg import SpanSolver, accumulate, vec_add_scaled
from .qfield import join_signed
from .rootsys import CartanType, RootSystem, _cartan_data, render_simple_form

F1 = Fraction(1)


class RealizationError(ValueError):
    pass


class FractionSpan(SpanSolver):
    """Span of Fraction vectors over basis indices."""


# ---------------------------------------------------------------------------
# Chevalley bases.
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ChevalleyBasis:
    """Fixed basis with bracket table for one root system.

    Basis layout: indices 0..m-1 are e_alpha over the positive roots in the
    root system's deterministic order, m..2m-1 the matching f_alpha, and
    2m..2m+rank-1 the simple coroots h_i.  rows[i][j] is the nonzero bracket
    [x_i, x_j], stored in both orders (rows[j][i] is its negative); a pair
    with a zero bracket has no entry.  The rows are written by
    _closed_form_basis from the positive structure constants N.  Callers only
    read the stored vectors: each is shared, a one-entry one between entries.

    The basis itself is shared and read only: build_realization hands the
    same one to every command of its root system in a process.  A basis
    compares and hashes by identity, so build_r_matrix is kept per basis.
    """

    rs: RootSystem
    rows: list
    # positive root -> its position in rs.positive_roots
    pos_index: dict = field(repr=False)

    # -- indexing ------------------------------------------------------------

    @property
    def npos(self):
        return len(self.rs.positive_roots)

    @property
    def dim(self):
        return 2 * self.npos + self.rs.rank

    def e_index(self, root: tuple) -> int:
        return self.pos_index[root]

    def f_index(self, root: tuple) -> int:
        return self.npos + self.pos_index[root]

    def h_index(self, i: int) -> int:
        return 2 * self.npos + i

    def e(self, root: tuple) -> dict:
        return {self.e_index(root): F1}

    def f(self, root: tuple) -> dict:
        return {self.f_index(root): F1}

    def h(self, i: int) -> dict:
        return {self.h_index(i): F1}

    # -- brackets -------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[x_i, x_j]: the stored vector (read only), or {} when it is zero."""
        return self.rows[i].get(j, {})

    def bracket(self, x: dict, y: dict) -> dict:
        """[x, y] = sum x_i y_j [x_i, x_j] over the nonzero table entries."""
        out = {}
        rows = self.rows
        for i, xi in x.items():
            row = rows[i]
            for j, yj in y.items():
                vec = row.get(j)
                if vec:
                    c = xi if yj == 1 else xi * yj
                    vec_add_scaled(out, vec, None if c == 1 else c)
        return out

    # -- rendering --------------------------------------------------------------

    def _label(self, i: int) -> str:
        """The name of basis vector i: e[root], f[root] or h<k>."""
        m = self.npos
        if i >= 2 * m:
            return f"h{i - 2 * m + 1}"
        kind, root = ("e", i) if i < m else ("f", i - m)
        return f"{kind}[{self.rs.render_root(self.rs.positive_roots[root])}]"

    def render_element(self, x: dict) -> str:
        if not x:
            return "0"
        parts = []
        for i in sorted(x):
            c = x[i]
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(("-" if c < 0 else "+", f"{mag}{self._label(i)}"))
        return join_signed(parts)


# ---------------------------------------------------------------------------
# Positive structure constants.
# ---------------------------------------------------------------------------

def _cocycle_sign(A, u, v) -> int:
    """eps(u, v) = (-1)^(sum_i u_i v_i + sum_{i<j} u_i v_j A_ij), the lattice
    2-cocycle of a simply-laced Cartan matrix A (Kac, Infinite-Dimensional
    Lie Algebras, 7.8).  The simply-laced bases take [e_u, e_v] =
    eps(u, v) e_{u+v} for roots u, v whose sum is a root; there
    eps(u, v) eps(v, u) = (-1)^(u, v) = -1, so this holds in either order."""
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = A[i]
            total += ui * (v[i] + sum(row[j] * v[j] for j in range(i + 1, len(v)) if v[j]))
    return -1 if total & 1 else 1


def _positive_pairs(rs: RootSystem):
    """(a, b, a + b) over positive roots a before b whose sum is a root."""
    positives = rs.positive_roots
    pos_set = set(positives)
    for i, a in enumerate(positives):
        for b in positives[i + 1:]:
            s = tuple(map(add, a, b))
            if s in pos_set:
                yield a, b, s


def _simply_laced_pos_constants(rs: RootSystem) -> dict:
    """N(a, b) of a simply-laced type: the cocycle sign of its Cartan matrix."""
    A = rs.cartan_matrix
    return {(a, b): _cocycle_sign(A, a, b) for a, b, _ in _positive_pairs(rs)}


# non-simply-laced series -> (its simply-laced parent, the diagram automorphism
# sigma on the parent's 0-based nodes, the folded node of each parent node)
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


def _folded_pos_constants(rs: RootSystem) -> dict:
    """N(a, b) of B_n, C_n, G2 or F4 in the sigma-fixed subalgebra of its
    simply-laced parent D_{n+1}, A_{2n-1}, D4 or E6 (Carter, Simple Groups of
    Lie Type, ch. 13; Kac, Infinite-Dimensional Lie Algebras, 7.9).

    The automorphism with sigma(e_i) = e_{sigma i} on the parent's simple
    roots maps e_b to s(b) e_{sigma b}, with s fixed by induction on height
    from s(g + a_i) = s(g) eps(sigma g, a_{sigma i}) eps(g, a_i).  Each folded
    root a is one sigma-orbit of parent roots, and e_a is the orbit sum of
    sigma^k(e_b) from its first root b; sigma must fix that sum.  N(a, b) is
    the coefficient of that first root's e in [e_a, e_b].  The orbit sizes,
    n(a) = (e_a, f_a) of the parent's form, are proportional to 2/(a, a), so
    these N belong to a Chevalley basis.
    """
    parent, sigma, node = _FOLDS[rs.type.series](rs.rank)
    A = _cartan_data(parent)[0]
    p = parent.rank
    units = [tuple(int(k == i) for k in range(p)) for i in range(p)]
    links = [[j for j, x in enumerate(row) if x] for row in A]  # node and neighbours
    # the parent's positive roots, a height at a time, each with its sign s
    # and its image under sigma; in a simply-laced type b + a_i is a root
    # exactly when (b, a_i) = -1
    sign, moved = dict.fromkeys(units, 1), {}
    level = units
    while level:
        up = []
        for b in level:
            w = [0] * p
            for i, c in enumerate(b):
                w[sigma[i]] += c
            moved[b] = tuple(w)
            for i, row in enumerate(A):
                if sum(row[j] * b[j] for j in links[i]) == -1:
                    s = (*b[:i], b[i] + 1, *b[i + 1:])
                    if s not in sign:
                        sign[s] = (sign[b] * _cocycle_sign(A, moved[b], units[sigma[i]])
                                   * _cocycle_sign(A, b, units[i]))
                        up.append(s)
        level = up
    orbits = {}  # folded root -> {parent root: its coefficient in e_a}
    for b in sorted(sign):
        a = tuple(sum(c for i, c in enumerate(b) if node[i] == k) for k in range(rs.rank))
        if a in orbits:
            continue
        orbit = orbits[a] = {}
        c = 1
        while b not in orbit:
            orbit[b] = c
            b, c = moved[b], c * sign[b]
        if c != 1:
            raise RealizationError(
                f"the automorphism of {parent} does not fix the orbit sum of "
                f"e[{render_simple_form(b)}]"
            )
    out = {}
    for a, b, s in _positive_pairs(rs):
        t = next(iter(orbits[s]))  # its coefficient is 1
        orbit_b, total = orbits[b], 0
        for x, cx in orbits[a].items():
            y = tuple(map(sub, t, x))
            cy = orbit_b.get(y)
            if cy:
                total += cx * cy * _cocycle_sign(A, x, y)
        out[(a, b)] = total
    return out


# ---------------------------------------------------------------------------
# The bracket table in closed form.
# ---------------------------------------------------------------------------

def _closed_form_basis(rs: RootSystem, pos_constants: dict) -> ChevalleyBasis:
    """The Chevalley basis whose [e_a, e_b] = N(a, b) e_{a+b} for positive
    a, b, with (e_a, f_a) = 2/(a, a) under an invariant form ( , ).

    Every other bracket follows from N by invariance (Carter, Simple Groups
    of Lie Type, Thm 4.1.2; Humphreys, Introduction to Lie Algebras and
    Representation Theory, 25.2), with f_a scaled so that [f_a, f_b] =
    -N(a, b) f_{a+b}:
      [e_a, f_a] = h_a, the coroot of a,
      [e_a, f_b] = -N(b, a-b) (a-b, a-b)/(a, a) e_{a-b}   if a - b > 0,
      [e_a, f_b] =  N(b-a, a) (b-a, b-a)/(b, b) f_{b-a}   if b - a > 0,
      [h_i, e_a] = a(h_i) e_a,  [h_i, f_a] = -a(h_i) f_a.
    Only the nonzero N are walked: a mixed [e_a, f_b] is nonzero exactly when
    a = b + c or b = a + c for a positive root c.
    """
    roots = rs.positive_roots
    index = {a: i for i, a in enumerate(roots)}
    norm = {a: rs.inner(a, a) for a in roots}
    m, rank, A, d = len(roots), rs.rank, rs.cartan_matrix, rs.symmetrizers
    built = {}

    def signed(num, den=1):
        """The Fractions num/den and -num/den, built once per (num, den)."""
        hit = built.get((num, den))
        if hit is None:
            v = Fraction(num, den)
            hit = built[(num, den)] = (v, -v)
        return hit

    rows = [{} for _ in range(2 * m + rank)]
    leaves = {}

    def put(i, j, k, num, den=1):
        """[x_i, x_j] = num/den x_k, and [x_j, x_i] its negative.  Rows are
        read only, so they share one {k: v} per k and value v."""
        g = gcd(num, den)
        for a, b, n in ((i, j, num // g), (j, i, -num // g)):
            key = (k, n, den // g)
            leaf = leaves.get(key)
            if leaf is None:
                leaf = leaves[key] = {k: signed(n, den // g)[0]}
            rows[a][b] = leaf

    # each nonzero N(x, y), in both orders, with s = x + y, gives [e_x, e_y]
    # (when x comes first), [e_s, f_x] (the case s - x = y > 0) and [e_y, f_s]
    # (the case s - y = x > 0); over all pairs that is every mixed bracket
    for (a, b), c in pos_constants.items():
        for x, y, cn in ((a, b, c), (b, a, -c)):
            ix, iy = index[x], index[y]
            s = tuple(map(add, x, y))
            i_s = index[s]
            if ix < iy:
                put(ix, iy, i_s, cn)
                put(m + ix, m + iy, m + i_s, -cn)
            put(i_s, m + ix, iy, -cn * norm[y], norm[s])
            put(iy, m + i_s, m + ix, cn * norm[x], norm[s])
    for i, a in enumerate(roots):
        # h_a = sum_k c_k (2 d_k / (a, a)) h_k for a = sum_k c_k a_k
        h = [(2 * m + k, signed(2 * c * d[k], norm[a])) for k, c in enumerate(a) if c]
        rows[i][m + i] = {k: pos for k, (pos, _) in h}
        rows[m + i][i] = {k: neg for k, (_, neg) in h}
        for k in range(rank):
            weight = sum(map(mul, A[k], a))
            if weight:
                put(i, 2 * m + k, i, -weight)
                put(m + i, 2 * m + k, m + i, weight)
    return ChevalleyBasis(rs=rs, rows=rows, pos_index=index)


@cache
def build_realization(rs: RootSystem) -> ChevalleyBasis:
    """The Chevalley basis of a root system, built on the first call for
    that root system and shared, read only, by every later call in the
    process."""
    if rs.type.series in "ADE":
        return _closed_form_basis(rs, _simply_laced_pos_constants(rs))
    return _closed_form_basis(rs, _folded_pos_constants(rs))


# ---------------------------------------------------------------------------
# The r-matrix and coisotropy checks.
# ---------------------------------------------------------------------------

def killing_lambda(cb: ChevalleyBasis, alpha: tuple) -> Fraction:
    """1 / K(e_alpha, f_alpha), in closed form from integer root data.

    h = [e_alpha, f_alpha] is a multiple of the coroot alpha^v.  Invariance
    gives alpha(h) K(e, f) = K(h, h) = sum over all roots gamma(h)^2, hence
    1 / K(e, f) = 2 / (alpha(h) * sum_{gamma > 0} <gamma, alpha^v>^2).
    alpha(h) is read from the table entry [e_alpha, f_alpha], each coefficient
    of h_k weighted by alpha(h_k) = (A alpha)_k, the weight [h_k, e_alpha]
    stores.  In build_realization's bases h is the coroot on every root, so
    alpha(h) = 2; reading it keeps the formula right for a basis that scales
    f_alpha otherwise, such as the matrix realization of so(2n+1), where
    [e, f] is half the coroot on the short roots.  The pairing sum is
    4 * sum_{gamma > 0} (gamma, alpha)^2 / (alpha, alpha)^2
    = 4 * kappa / (alpha, alpha), with kappa = rs.pairing_ratio, the one
    constant that W-invariance of the form gives an irreducible root system.
    """
    rs = cb.rs
    h0 = cb.h_index(0)
    h = cb.bracket_basis(cb.e_index(alpha), cb.f_index(alpha))
    alpha_h = sum(c * sum(map(mul, rs.cartan_matrix[k - h0], alpha)) for k, c in h.items())
    if alpha_h == 0:
        raise RealizationError(f"degenerate Killing pairing at {render_simple_form(alpha)}")
    return rs.inner(alpha, alpha) / (2 * rs.pairing_ratio) / alpha_h


def bivector(terms) -> dict:
    """{(i, j): c} with i < j for the sum of c x_i ^ x_j over (i, j, c) terms."""
    wedges = (((i, j), c) if i < j else ((j, i), -c) for i, j, c in terms if i != j and c)
    return accumulate({}, wedges)


@cache
def build_r_matrix(cb: ChevalleyBasis) -> dict:
    """The r-matrix sum over positive roots of killing_lambda * e ^ f, as a
    bivector; built on the first call for that basis and shared, read only,
    by every later call in the process."""
    terms = []
    for r in cb.rs.positive_roots:
        lam = killing_lambda(cb, r)
        terms.append((cb.e_index(r), cb.f_index(r), lam))
    return bivector(terms)


def ad_bivector(cb: ChevalleyBasis, x: dict, b: dict) -> dict:
    """[x, b] extended as a derivation over wedge legs."""
    legs = {}  # [x, x_i], once per basis index
    for pair in b:
        for i in pair:
            if i not in legs:
                legs[i] = cb.bracket(x, {i: F1})
    terms = []
    for (i, j), c in b.items():
        terms.extend((k, j, c * v) for k, v in legs[i].items())
        terms.extend((i, k, c * v) for k, v in legs[j].items())
    return bivector(terms)


def _contractions(b: dict) -> dict:
    """{i: w_i}, w_i the contraction of b by the dual of x_i, so that
    b = 1/2 sum_i x_i ^ w_i and [x, b] = sum_i [x, x_i] ^ w_i."""
    rows = {}
    for (i, j), c in b.items():
        accumulate(rows.setdefault(i, {}), [(j, c)])
        accumulate(rows.setdefault(j, {}), [(i, -c)])
    return rows


def coisotropic_generators(cb: ChevalleyBasis, b: dict):
    """Reduced echelon basis of the image of the contraction map of b."""
    span = FractionSpan()
    for vec in _contractions(b).values():
        span.add(vec)
    rows = span.negated_reduced_rows()
    return [{p: F1, **{k: -c for k, c in tail.items()}} for p, tail in rows.items()]


def check_coisotropic(cb: ChevalleyBasis, pi: dict, gens: list) -> dict:
    """{"closure": [g_i, g_j] in span for every pair, "coideal": [g_i, pi] in
    span wedge g for every generator}, the dict `classical` prints under
    "checks".  Each stops at its first failure; a failed closure does not
    skip the coideal check."""
    span = FractionSpan()
    for g in gens:
        span.add(g)
    closure = all(span.contains(cb.bracket(x, y)) for x, y in combinations(gens, 2))
    # coideal: delta(g) lies in span wedge g iff its image under P ^ P
    # vanishes, P the projection onto the quotient by the span.  By
    # linearity P ^ P [g, pi] = sum_k g_k sum_i P[x_k, x_i] ^ P(w_i), with
    # the w_i of _contractions(pi); each P(w_i), each image of an x_k and P of
    # each basis index is formed once.
    proj, images = {}, {}
    p_w = {i: p for i, w in _contractions(pi).items() if (p := span.reduce(w)[0])}

    def project(i):
        hit = proj.get(i)
        if hit is None:
            hit = proj[i] = span.reduce({i: F1})[0]
        return hit

    def image(k):
        hit = images.get(k)
        if hit is None:
            terms = []
            for i, leg in cb.rows[k].items():
                p_wi = p_w.get(i)
                if p_wi:
                    p_leg = {}
                    for l, v in leg.items():
                        vec_add_scaled(p_leg, project(l), None if v == 1 else v)
                    terms.extend((a, b, va * vb)
                                 for a, va in p_leg.items() for b, vb in p_wi.items())
            hit = images[k] = bivector(terms)
        return hit

    def total(g):
        out = {}
        for k, gk in g.items():
            vec_add_scaled(out, image(k), None if gk == 1 else gk)
        return out

    return {"closure": closure, "coideal": not any(total(g) for g in gens)}


def check_master_equation(cb: ChevalleyBasis, x: dict, pi: dict) -> bool:
    """True iff [x, [x, pi]] = 0."""
    return not ad_bivector(cb, x, ad_bivector(cb, x, pi))
