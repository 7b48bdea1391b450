"""Classical semisimple Lie algebras: realizations, the r-matrix, coisotropy.

Every algebra is presented through a fixed basis (root vectors e_alpha,
f_alpha for each positive root, plus the simple coroots h_i) with exact
rational structure constants.  One closed form (_closed_form_basis) writes
the whole bracket table from two inputs on positive roots: the structure
constants N(a, b) of [e_a, e_b] = N(a, b) e_{a+b} and n(a) = (e_a, f_a) under
an invariant form.  For A-D both are read off the standard matrix
realizations (traceless, orthogonal, symplectic), where f_a is the transpose
of e_a; G2 and E6 take Chevalley constants and n(a) = 2/(a, a).  Then
[e_alpha, f_alpha] = h_alpha, the coroot of alpha, except on the short roots
of B, where the matrix realization gives h_alpha / 2.

The table and the r-matrix are computed from integer root data: the matrix
entries, Cartan matrix and form pairings are ints, each mixed bracket comes
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
[x_k, pi] is projected onto the quotient by the span once per check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import add, mul

from .linalg import SpanSolver, accumulate, vec_add_scaled
from .qfield import join_signed
from .rootsys import Root, RootSystem

F1 = Fraction(1)


class RealizationError(ValueError):
    pass


class FractionSpan(SpanSolver):
    """Span of Fraction vectors over basis indices."""


# ---------------------------------------------------------------------------
# Chevalley bases.
# ---------------------------------------------------------------------------

@dataclass
class ChevalleyBasis:
    """Fixed basis with bracket table for one root system.

    Basis layout: indices 0..m-1 are e_alpha over the positive roots in the
    root system's deterministic order, m..2m-1 the matching f_alpha, and
    2m..2m+rank-1 the simple coroots h_i.  rows[i][j] is the nonzero bracket
    [x_i, x_j], stored in both orders (rows[j][i] is its negative); a pair
    with a zero bracket has no entry.  The rows are written by
    _closed_form_basis from the positive structure constants N and the
    pairings n(alpha) = (e_alpha, f_alpha), and every stored vector is shared
    with callers, who only read it.  [e_alpha, f_alpha] = nu(alpha) h_alpha
    with nu = 1, except nu = 1/2 on the short roots of B, where the matrix
    realization's [e, f] is half the coroot.
    """

    rs: RootSystem
    rows: list
    # positive root decomposition -> its position in rs.positive_roots
    pos_index: dict = field(repr=False)

    # -- indexing ------------------------------------------------------------

    @property
    def npos(self):
        return len(self.rs.positive_roots)

    @property
    def dim(self):
        return 2 * self.npos + self.rs.rank

    def e_index(self, root: Root) -> int:
        return self.pos_index[root.decomp]

    def f_index(self, root: Root) -> int:
        return self.npos + self.pos_index[root.decomp]

    def h_index(self, i: int) -> int:
        return 2 * self.npos + i

    def e(self, root: Root) -> dict:
        return {self.e_index(root): F1}

    def f(self, root: Root) -> dict:
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

def _root_matrices(rs: RootSystem) -> dict:
    """The sparse matrix of e_a in the standard realization, per positive root a.

    sl(n+1) acts on the weights L_1..L_{n+1}; sp(2n) and so(2n) on L_1..L_n,
    -L_1..-L_n; so(2n+1) has one more weight 0 at index 2n.  In all four
    f_a is the transpose of e_a, so only the e-matrices are kept.  Entries
    are the integers 1 and -1.
    """
    series, n = rs.type.series, rs.rank
    if series not in "ABCD":
        raise RealizationError(f"no matrix realization for {rs.type}")
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
        out[r.decomp] = mat
    return out


def _mat_bracket(a, b):
    """ab - ba for sparse matrices keyed by (row, column)."""
    out = {}
    for (r, c), v in a.items():
        for (r2, c2), w in b.items():
            if c == r2:
                accumulate(out, [((r, c2), v * w)])
            if c2 == r:
                accumulate(out, [((r2, c), -v * w)])
    return out


def _matrix_constants(rs: RootSystem):
    """(N, n) of the matrix realization: [e_a, e_b] = N(a, b) e_{a+b} for
    positive a, b, and n(a) = tr(e_a f_a), the sum of squares of e_a's entries."""
    mats = _root_matrices(rs)
    N = {}
    for (a, ea), (b, eb) in combinations(mats.items(), 2):
        ab = tuple(map(add, a, b))
        target = mats.get(ab)
        if target is None:
            continue
        comm = _mat_bracket(ea, eb)
        cell = next(iter(target))
        c = Fraction(comm.get(cell, 0), target[cell])
        if comm != {k: c * v for k, v in target.items()}:
            raise RealizationError(f"[e_{a}, e_{b}] is not a multiple of e_{ab}")
        N[(a, b)] = c
    return N, {a: sum(v * v for v in m.values()) for a, m in mats.items()}


# Positive-part constants of G2 over simple roots a=(1,0) short, b=(0,1) long,
# anchored at [x_b, x_a] = x_{a+b} and closed under the Jacobi identity:
#   [x_{a+b}, x_a] = 2 x_{2a+b},  [x_{2a+b}, x_a] = 3 x_{3a+b},
#   [x_{3a+b}, x_b] = x_{3a+2b},  [x_{a+b}, x_{2a+b}] = 3 x_{3a+2b}.
_G2_POS_CONSTANTS = {
    ((0, 1), (1, 0)): 1,
    ((1, 1), (1, 0)): 2,
    ((2, 1), (1, 0)): 3,
    ((3, 1), (0, 1)): 1,
    ((1, 1), (2, 1)): 3,
}


def _simply_laced_pos_constants(rs: RootSystem) -> dict:
    """Positive structure constants from a lattice 2-cocycle sign."""
    n = rs.rank
    A = rs.cartan_matrix

    def eps(u, v):
        total = 0
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                if i == j:
                    total += u[i] * v[j]
                elif i < j:
                    total += u[i] * v[j] * A[i][j]
        return 1 if total % 2 == 0 else -1

    out = {}
    positives = [r.decomp for r in rs.positive_roots]
    pos_set = set(positives)
    for i, a in enumerate(positives):
        for b in positives[i + 1:]:
            if tuple(map(add, a, b)) in pos_set:
                out[(a, b)] = eps(a, b)
    return out


# ---------------------------------------------------------------------------
# The bracket table in closed form.
# ---------------------------------------------------------------------------

def _closed_form_basis(
    rs: RootSystem, pos_constants: dict, n: dict | None = None
) -> ChevalleyBasis:
    """The basis whose [e_a, e_b] = N(a, b) e_{a+b} and (e_a, f_a) = n(a) for
    positive a, b, under an invariant form ( , ).

    Every other bracket follows from N and n by invariance (Carter, Simple
    Groups of Lie Type, Thm 4.1.2; Humphreys, Introduction to Lie Algebras and
    Representation Theory, 25.2), with f_a scaled so that [f_a, f_b] =
    -N(a, b) f_{a+b}:
      [e_a, f_a] = nu(a) h_a,  nu(a) = n(a)(a, a) / (n(theta)(theta, theta)),
      [e_a, f_b] = -N(b, a-b) n(a)/n(a-b) e_{a-b}   if a - b > 0,
      [e_a, f_b] =  N(b-a, a) n(b)/n(b-a) f_{b-a}   if b - a > 0,
      [h_i, e_a] = a(h_i) e_a,  [h_i, f_a] = -a(h_i) f_a,
    where h_a is the coroot of a and theta the highest root, so that
    [e_theta, f_theta] = h_theta.  n defaults to the Chevalley value 2/(a, a),
    for which nu = 1.  Only the nonzero N are walked: a mixed [e_a, f_b] is
    nonzero exactly when a = b + c or b = a + c for a positive root c.
    """
    roots = [r.decomp for r in rs.positive_roots]
    index = {a: i for i, a in enumerate(roots)}
    norm = {a: rs.inner(a, a) for a in roots}
    # n(a) as an integer pair (numerator, denominator)
    if n is None:
        ratio = {a: (2, norm[a]) for a in roots}
    else:
        ratio = {a: (n[a].numerator, n[a].denominator) for a in roots}
    theta = max(roots, key=sum)
    tp, tq = ratio[theta]
    theta_den = tp * norm[theta]
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

    def put(i, j, k, num, den=1):
        """[x_i, x_j] = num/den x_k, and [x_j, x_i] its negative."""
        pos, neg = signed(num, den)
        rows[i][j] = {k: pos}
        rows[j][i] = {k: neg}

    # each nonzero N(x, y), in both orders, with s = x + y, gives [e_x, e_y]
    # (when x comes first), [e_s, f_x] (the case s - x = y > 0) and [e_y, f_s]
    # (the case s - y = x > 0); over all pairs that is every mixed bracket
    for (a, b), c in pos_constants.items():
        for x, y, cn, cd in ((a, b, c.numerator, c.denominator),
                             (b, a, -c.numerator, c.denominator)):
            ix, iy = index[x], index[y]
            s = tuple(map(add, x, y))
            i_s = index[s]
            if ix < iy:
                put(ix, iy, i_s, cn, cd)
                put(m + ix, m + iy, m + i_s, -cn, cd)
            (ps, qs), (px, qx), (py, qy) = ratio[s], ratio[x], ratio[y]
            put(i_s, m + ix, iy, -cn * ps * qy, cd * qs * py)
            put(iy, m + i_s, m + ix, cn * ps * qx, cd * qs * px)
    for i, a in enumerate(roots):
        p, q = ratio[a]
        # nu(a) * 2 c d_k / (a, a) with nu(a) = n(a)(a, a) / (n(theta)(theta, theta))
        h = [(2 * m + k, signed(2 * c * d[k] * p * tq, q * theta_den))
             for k, c in enumerate(a) if c]
        rows[i][m + i] = {k: pos for k, (pos, _) in h}
        rows[m + i][i] = {k: neg for k, (_, neg) in h}
        for k in range(rank):
            weight = sum(map(mul, A[k], a))
            if weight:
                put(i, 2 * m + k, i, -weight)
                put(m + i, 2 * m + k, m + i, weight)
    return ChevalleyBasis(rs=rs, rows=rows, pos_index=index)


def build_realization(rs: RootSystem) -> ChevalleyBasis:
    series = rs.type.series
    if series in "ABCD":
        return _closed_form_basis(rs, *_matrix_constants(rs))
    if series == "G":
        return _closed_form_basis(rs, _G2_POS_CONSTANTS)
    if series == "E":
        return _closed_form_basis(rs, _simply_laced_pos_constants(rs))
    raise RealizationError(f"no classical realization for {rs.type}: not implemented yet")


# ---------------------------------------------------------------------------
# The r-matrix and coisotropy checks.
# ---------------------------------------------------------------------------

def killing_lambda(cb: ChevalleyBasis, alpha: Root) -> Fraction:
    """1 / K(e_alpha, f_alpha), in closed form from integer root data.

    h = [e_alpha, f_alpha] is a multiple of the coroot alpha^v.  Invariance
    gives alpha(h) K(e, f) = K(h, h) = sum over all roots gamma(h)^2, hence
    1 / K(e, f) = 2 / (alpha(h) * sum_{gamma > 0} <gamma, alpha^v>^2).
    alpha(h) is read from the table entry [e_alpha, f_alpha], each coefficient
    of h_k weighted by alpha(h_k) = (A alpha)_k, the weight [h_k, e_alpha]
    stores; a basis need not scale h to the coroot (for a short root of B,
    [e, f] is H_i, not 2 H_i).  The pairing sum is
    4 * sum_{gamma > 0} (gamma, alpha)^2 / (alpha, alpha)^2
    = 4 * kappa / (alpha, alpha), with kappa = rs.pairing_ratio, the one
    constant that W-invariance of the form gives an irreducible root system.
    """
    rs, a = cb.rs, alpha.decomp
    h0 = cb.h_index(0)
    h = cb.bracket_basis(cb.e_index(alpha), cb.f_index(alpha))
    alpha_h = sum(c * sum(map(mul, rs.cartan_matrix[k - h0], a)) for k, c in h.items())
    if alpha_h == 0:
        raise RealizationError(f"degenerate Killing pairing at {alpha}")
    return rs.inner(a, a) / (2 * rs.pairing_ratio) / alpha_h


def bivector(terms) -> dict:
    """{(i, j): c} with i < j for the sum of c x_i ^ x_j over (i, j, c) terms."""
    wedges = (((i, j), c) if i < j else ((j, i), -c) for i, j, c in terms if i != j and c)
    return accumulate({}, wedges)


def build_r_matrix(cb: ChevalleyBasis) -> dict:
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
    return [{p: F1, **tail} for p, tail in span.reduced_rows().items()]


@dataclass
class ClassicalReport:
    closure_ok: bool
    coideal_ok: bool
    failing_pair: tuple | None = None
    failing_generator: int | None = None

    @property
    def passed(self):
        return self.closure_ok and self.coideal_ok


def check_coisotropic(cb: ChevalleyBasis, pi: dict, gens: list) -> ClassicalReport:
    """Closure ([g_i,g_j] in span) and coideal ([g_i, pi] in span wedge g)."""
    span = FractionSpan()
    for g in gens:
        span.add(g)
    closure_ok, failing_pair = True, None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = cb.bracket(gens[i], gens[j])
            if not span.contains(br):
                closure_ok, failing_pair = False, (i, j)
                break
        if not closure_ok:
            break
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

    coideal_ok, failing_generator = True, None
    for gi, g in enumerate(gens):
        total = {}
        for k, gk in g.items():
            vec_add_scaled(total, image(k), None if gk == 1 else gk)
        if total:
            coideal_ok, failing_generator = False, gi
            break
    return ClassicalReport(
        closure_ok=closure_ok,
        coideal_ok=coideal_ok,
        failing_pair=failing_pair,
        failing_generator=failing_generator,
    )


def check_master_equation(cb: ChevalleyBasis, x: dict, pi: dict) -> bool:
    """True iff [x, [x, pi]] = 0."""
    return not ad_bivector(cb, x, ad_bivector(cb, x, pi))
