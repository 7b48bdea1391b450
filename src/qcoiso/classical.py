"""Classical semisimple Lie algebras: realizations, the r-matrix, coisotropy.

Every algebra is presented through a fixed basis (root vectors e_alpha,
f_alpha for each positive root, plus the simple coroots h_i) with exact
rational structure constants.  Types A-D use the standard matrix realizations
(traceless, symplectic, orthogonal), with brackets read off the matrix
commutators.  G2 and E6 have no matrix realization here: their Chevalley
basis is written down from the structure constants N(a, b) of positive roots
alone, every other bracket following in closed form from Carter's identity
(see _closed_form_basis).  These bases satisfy [e_alpha, f_alpha] = h_alpha,
the coroot of alpha.

Elements are sparse coefficient dicts over the basis.  Bivectors (antisymmetric
two-tensors) are dicts keyed by index pairs (i, j) with i < j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import SpanSolver, accumulate, vec_add_scaled
from .rootsys import Root, RootSystem

F0 = Fraction(0)
F1 = Fraction(1)


class RealizationError(ValueError):
    pass


class FractionSpan(SpanSolver):
    """Span of Fraction vectors keyed by ints or tuples (matrix cells)."""

    def __init__(self):
        super().__init__(key_order=_key_order)


def _key_order(k):
    return (len(k), k) if isinstance(k, tuple) else (0, k)


# ---------------------------------------------------------------------------
# Chevalley bases.
# ---------------------------------------------------------------------------

@dataclass
class ChevalleyBasis:
    """Fixed basis with bracket table for one root system.

    Basis layout: indices 0..m-1 are e_alpha over the positive roots in the
    root system's deterministic order, m..2m-1 the matching f_alpha, and
    2m..2m+rank-1 the simple coroots h_i.  The bracket table holds [x_i, x_j]
    for every i < j.  For A-D it is solved from the matrix commutators (the B
    basis is not Chevalley-normalized); for G2 and E6 it is the closed form of
    _closed_form_basis, in which [e_alpha, f_alpha] = h_alpha.
    """

    rs: RootSystem
    matrices: list | None  # sparse matrices for the classical types
    _bracket_table: dict = field(default_factory=dict)
    labels: list = field(init=False)
    _pos_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        rs = self.rs
        self._pos_index = {r.decomp: i for i, r in enumerate(rs.positive_roots)}
        self.labels = [f"e[{rs.render_root(r)}]" for r in rs.positive_roots]
        self.labels += [f"f[{rs.render_root(r)}]" for r in rs.positive_roots]
        self.labels += [f"h{i + 1}" for i in range(rs.rank)]

    # -- indexing ------------------------------------------------------------

    @property
    def npos(self):
        return len(self.rs.positive_roots)

    @property
    def dim(self):
        return 2 * self.npos + self.rs.rank

    def e_index(self, root: Root) -> int:
        return self._pos_index[root.decomp]

    def f_index(self, root: Root) -> int:
        return self.npos + self._pos_index[root.decomp]

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
        if i == j:
            return {}
        if i > j:
            return {k: -v for k, v in self.bracket_basis(j, i).items()}
        hit = self._bracket_table.get((i, j))
        if hit is None:
            raise RealizationError("bracket table incomplete")
        return hit

    def bracket(self, x: dict, y: dict) -> dict:
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                vec_add_scaled(out, self.bracket_basis(i, j), xi * yj)
        return out

    # -- rendering --------------------------------------------------------------

    def render_element(self, x: dict) -> str:
        if not x:
            return "0"
        parts = []
        for i in sorted(x):
            c = x[i]
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(("-" if c < 0 else "+", f"{mag}{self.labels[i]}"))
        s = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            s += sign + term
        return s


# ---------------------------------------------------------------------------
# Matrix realizations for the classical series.
# ---------------------------------------------------------------------------

def _eu(i, j):
    return {(i, j): F1}


def _madd(*mats_scales):
    """The sum of s * mat over the (mat, s) pairs."""
    out = {}
    for mat, s in mats_scales:
        vec_add_scaled(out, mat, s)
    return out


def _mat_mul(a, b):
    out = {}
    bt = {}
    for (r, c), v in b.items():
        bt.setdefault(r, []).append((c, v))
    for (r, c), v in a.items():
        accumulate(out, (((r, c2), v * w) for c2, w in bt.get(c, ())))
    return out


def _mat_bracket(a, b):
    return _madd((_mat_mul(a, b), F1), (_mat_mul(b, a), -F1))


def _classical_matrices(rs: RootSystem):
    """(e_mat, f_mat) per positive root plus coroot matrices, per type."""
    series, n = rs.type.series, rs.rank
    e_of, f_of = {}, {}

    def x_ij(i, j, n):
        return _madd((_eu(i, j), F1), (_eu(n + j, n + i), -F1))

    if series == "A":
        for r in rs.positive_roots:
            coords = rs.euclid_coords(r)
            i = next(k for k, c in enumerate(coords) if c == 1)
            j = next(k for k, c in enumerate(coords) if c == -1)
            e_of[r.decomp] = _eu(i, j)
            f_of[r.decomp] = _eu(j, i)
        coroots = [
            _madd((_eu(i, i), F1), (_eu(i + 1, i + 1), -F1)) for i in range(n)
        ]
        return e_of, f_of, coroots

    if series in "CD":
        for r in rs.positive_roots:
            coords = rs.euclid_coords(r)
            pos = [k for k, c in enumerate(coords) if c > 0]
            neg = [k for k, c in enumerate(coords) if c < 0]
            if len(pos) == 1 and len(neg) == 1:  # L_i - L_j
                i, j = pos[0], neg[0]
                e_of[r.decomp] = x_ij(i, j, n)
                f_of[r.decomp] = x_ij(j, i, n)
            elif len(pos) == 2:  # L_i + L_j, i < j
                i, j = pos
                if series == "C":
                    e_of[r.decomp] = _madd((_eu(i, n + j), F1), (_eu(j, n + i), F1))
                    f_of[r.decomp] = _madd((_eu(n + i, j), F1), (_eu(n + j, i), F1))
                else:
                    e_of[r.decomp] = _madd((_eu(i, n + j), F1), (_eu(j, n + i), -F1))
                    f_of[r.decomp] = _madd((_eu(n + j, i), F1), (_eu(n + i, j), -F1))
            else:  # 2L_i, type C only
                i = pos[0]
                e_of[r.decomp] = _eu(i, n + i)
                f_of[r.decomp] = _eu(n + i, i)
        coroots = []
        for i in range(n - 1):
            coroots.append(
                _madd(
                    (_eu(i, i), F1),
                    (_eu(i + 1, i + 1), -F1),
                    (_eu(n + i, n + i), -F1),
                    (_eu(n + i + 1, n + i + 1), F1),
                )
            )
        if series == "C":
            coroots.append(_madd((_eu(n - 1, n - 1), F1), (_eu(2 * n - 1, 2 * n - 1), -F1)))
        else:
            coroots.append(
                _madd(
                    (_eu(n - 2, n - 2), F1),
                    (_eu(n - 1, n - 1), F1),
                    (_eu(2 * n - 2, 2 * n - 2), -F1),
                    (_eu(2 * n - 1, 2 * n - 1), -F1),
                )
            )
        return e_of, f_of, coroots

    if series == "B":
        for r in rs.positive_roots:
            coords = rs.euclid_coords(r)
            pos = [k for k, c in enumerate(coords) if c > 0]
            neg = [k for k, c in enumerate(coords) if c < 0]
            if len(pos) == 1 and len(neg) == 1:
                i, j = pos[0], neg[0]
                e_of[r.decomp] = x_ij(i, j, n)
                f_of[r.decomp] = x_ij(j, i, n)
            elif len(pos) == 2:
                i, j = pos
                e_of[r.decomp] = _madd((_eu(i, n + j), F1), (_eu(j, n + i), -F1))
                f_of[r.decomp] = _madd((_eu(n + j, i), F1), (_eu(n + i, j), -F1))
            else:  # short root L_i
                i = pos[0]
                e_of[r.decomp] = _madd((_eu(i, 2 * n), F1), (_eu(2 * n, n + i), -F1))
                f_of[r.decomp] = _madd((_eu(2 * n, i), F1), (_eu(n + i, 2 * n), -F1))
        coroots = []
        for i in range(n - 1):
            coroots.append(
                _madd(
                    (_eu(i, i), F1),
                    (_eu(i + 1, i + 1), -F1),
                    (_eu(n + i, n + i), -F1),
                    (_eu(n + i + 1, n + i + 1), F1),
                )
            )
        coroots.append(
            _madd((_eu(n - 1, n - 1), Fraction(2)), (_eu(2 * n - 1, 2 * n - 1), -Fraction(2)))
        )
        return e_of, f_of, coroots

    raise RealizationError(f"no matrix realization for {rs.type}")


def _build_matrix_basis(rs: RootSystem) -> ChevalleyBasis:
    e_of, f_of, coroots = _classical_matrices(rs)
    mats = [e_of[r.decomp] for r in rs.positive_roots]
    mats += [f_of[r.decomp] for r in rs.positive_roots] + coroots
    cb = ChevalleyBasis(rs=rs, matrices=mats)
    solver = FractionSpan()
    for idx, m in enumerate(mats):
        if not solver.add(m, {idx: F1}):
            raise RealizationError("dependent matrix basis")
    dim = cb.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = solver.solve(_mat_bracket(mats[i], mats[j]))
            if coords is None:
                raise RealizationError("matrix outside the realization span")
            cb._bracket_table[(i, j)] = coords
    return cb


# ---------------------------------------------------------------------------
# Chevalley bases from positive structure constants (G2, E6).
# ---------------------------------------------------------------------------

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
            t = tuple(x + y for x, y in zip(a, b))
            if t in pos_set:
                out[(a, b)] = eps(a, b)
    return out


def _closed_form_basis(rs: RootSystem, pos_constants: dict) -> ChevalleyBasis:
    """The Chevalley basis whose [e_a, e_b] = N(a, b) e_{a+b} for positive a, b.

    Every other bracket follows in closed form from N (Carter, Simple Groups
    of Lie Type, Thm 4.1.2: if r + s + t = 0 then N(r,s)/(t,t) = N(s,t)/(r,r)
    = N(t,r)/(s,s)) for f_a = e_{-a} in a Chevalley basis with
    N(-a, -b) = -N(a, b) and [e_a, e_{-a}] = h_a, the coroot of a:
      [f_a, f_b] = -N(a, b) f_{a+b},
      [e_a, f_b] = -N(b, a-b) (a-b, a-b)/(a, a) e_{a-b}   if a - b > 0,
      [e_a, f_b] =  N(b-a, a) (b-a, b-a)/(b, b) f_{b-a}   if b - a > 0,
      [h_i, e_a] = a(h_i) e_a,  [h_i, f_a] = -a(h_i) f_a.
    """
    N = {}
    for (a, b), c in pos_constants.items():
        N[(a, b)], N[(b, a)] = Fraction(c), -Fraction(c)
    roots = [r.decomp for r in rs.positive_roots]
    index = {a: i for i, a in enumerate(roots)}
    norm = {a: rs.inner(a, a) for a in roots}
    m, n, A, d = len(roots), rs.rank, rs.cartan_matrix, rs.symmetrizers
    dim = 2 * m + n
    table = {(i, j): {} for i in range(dim) for j in range(i + 1, dim)}
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            plus = tuple(x + y for x, y in zip(a, b))
            a_minus_b = tuple(x - y for x, y in zip(a, b))
            b_minus_a = tuple(-x for x in a_minus_b)
            if i < j and plus in index:
                table[(i, j)] = {index[plus]: N[(a, b)]}
                table[(m + i, m + j)] = {m + index[plus]: -N[(a, b)]}
            if i == j:
                table[(i, m + j)] = {
                    2 * m + k: Fraction(2 * c * d[k], norm[a]) for k, c in enumerate(a) if c
                }
            elif a_minus_b in index:
                coeff = -N[(b, a_minus_b)] * norm[a_minus_b] / norm[a]
                table[(i, m + j)] = {index[a_minus_b]: coeff}
            elif b_minus_a in index:
                coeff = N[(b_minus_a, a)] * norm[b_minus_a] / norm[b]
                table[(i, m + j)] = {m + index[b_minus_a]: coeff}
        for k in range(n):
            weight = sum(A[k][l] * a[l] for l in range(n))
            if weight:
                table[(i, 2 * m + k)] = {i: Fraction(-weight)}
                table[(m + i, 2 * m + k)] = {m + i: Fraction(weight)}
    return ChevalleyBasis(rs=rs, matrices=None, _bracket_table=table)


def build_realization(rs: RootSystem) -> ChevalleyBasis:
    series = rs.type.series
    if series in "ABCD":
        return _build_matrix_basis(rs)
    if series == "G":
        return _closed_form_basis(rs, _G2_POS_CONSTANTS)
    if series == "E":
        return _closed_form_basis(rs, _simply_laced_pos_constants(rs))
    raise RealizationError(f"no classical realization for {rs.type} (none is needed)")


# ---------------------------------------------------------------------------
# The r-matrix and coisotropy checks.
# ---------------------------------------------------------------------------

def killing_lambda(cb: ChevalleyBasis, alpha: Root) -> Fraction:
    """1 / K(e_alpha, f_alpha), in closed form from the root system.

    h = [e_alpha, f_alpha] is a multiple of the coroot alpha^v.  Invariance
    gives alpha(h) K(e, f) = K(h, h) = sum over all roots gamma(h)^2, hence
    1 / K(e, f) = 2 / (alpha(h) * sum_{gamma > 0} <gamma, alpha^v>^2).
    alpha(h) is read from the bracket table ([h, e] = alpha(h) e), since a
    basis need not scale h to the coroot: for a short root of B, [e, f] is
    H_i, not 2 H_i.
    """
    e = cb.e(alpha)
    alpha_h = cb.bracket(cb.bracket(e, cb.f(alpha)), e).get(cb.e_index(alpha), F0)
    if alpha_h == 0:
        raise RealizationError(f"degenerate Killing pairing at {alpha}")
    rs, a = cb.rs, alpha.decomp
    norm = rs.inner(a, a)
    pairing_sq = sum(Fraction(2 * rs.inner(g.decomp, a), norm) ** 2 for g in rs.positive_roots)
    return 2 / (alpha_h * pairing_sq)


def wedge_canonical(i: int, j: int, c: Fraction):
    if i == j or not c:
        return None
    return (i, j, c) if i < j else (j, i, -c)


def bivector(terms) -> dict:
    wedges = (wedge_canonical(i, j, c) for i, j, c in terms)
    return accumulate({}, (((a, b), c) for a, b, c in filter(None, wedges)))


def build_r_matrix(cb: ChevalleyBasis) -> dict:
    terms = []
    for r in cb.rs.positive_roots:
        lam = killing_lambda(cb, r)
        terms.append((cb.e_index(r), cb.f_index(r), lam))
    return bivector(terms)


def ad_bivector(cb: ChevalleyBasis, x: dict, b: dict) -> dict:
    """[x, b] extended as a derivation over wedge legs."""
    terms = []
    for (i, j), c in b.items():
        vi = cb.bracket(x, {i: F1})
        for k, v in vi.items():
            terms.append((k, j, c * v))
        vj = cb.bracket(x, {j: F1})
        for k, v in vj.items():
            terms.append((i, k, c * v))
    return bivector(terms)


def coisotropic_generators(cb: ChevalleyBasis, b: dict):
    """Reduced echelon basis of the image of the contraction map of b."""
    span = FractionSpan()
    rows = {}
    for (i, j), c in b.items():
        accumulate(rows.setdefault(i, {}), [(j, c)])
        accumulate(rows.setdefault(j, {}), [(i, -c)])
    for vec in rows.values():
        span.add(vec)
    return [{p: F1, **tail} for p, tail in span.reduced_rows().items()]


@dataclass
class ClassicalReport:
    closure_ok: bool
    coideal_ok: bool
    generators: list
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
    # coideal: project both wedge legs onto the quotient by the span;
    # delta(g) lies in span wedge g iff the double projection vanishes
    coideal_ok, failing_generator = True, None
    for gi, g in enumerate(gens):
        terms = []
        for (i, j), c in ad_bivector(cb, g, pi).items():
            pi_i, pi_j = span.reduce({i: F1})[0], span.reduce({j: F1})[0]
            terms.extend((a, b, c * va * vb) for a, va in pi_i.items() for b, vb in pi_j.items())
        if bivector(terms):
            coideal_ok, failing_generator = False, gi
            break
    return ClassicalReport(
        closure_ok=closure_ok,
        coideal_ok=coideal_ok,
        generators=gens,
        failing_pair=failing_pair,
        failing_generator=failing_generator,
    )


def check_master_equation(cb: ChevalleyBasis, x: dict, pi: dict) -> bool:
    """True iff [x, [x, pi]] = 0."""
    return not ad_bivector(cb, x, ad_bivector(cb, x, pi))
