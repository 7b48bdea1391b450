"""Root systems for types A-G with exact arithmetic.

Roots are primarily handled through their integer coordinates over the simple
roots; Euclidean coordinates (exact rationals, with the second G2 coordinate
carrying an implicit factor sqrt(3)) are attached for the classical types and
G2 for rendering, literal parsing and cross-checks.

The admissibility filter selects the positive roots beta whose root strings
(alpha + Z*beta) intersected with R never contain three consecutive integers;
those are exactly the roots for which ad_{e_beta}^2 kills the r-matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import solve_affine
from .qfield import join_signed


class RootSystemError(ValueError):
    pass


VALID_SERIES = "ABCDEFG"


@dataclass(frozen=True)
class CartanType:
    series: str
    rank: int

    def __post_init__(self):
        if self.series not in VALID_SERIES:
            raise RootSystemError(f"unknown series {self.series!r}")
        n = self.rank
        ok = {
            "A": n >= 1,
            "B": n >= 2,
            "C": n >= 2,
            "D": n >= 3,
            "E": n in (6, 7, 8),
            "F": n == 4,
            "G": n == 2,
        }[self.series]
        if not ok:
            raise RootSystemError(f"invalid rank {n} for series {self.series}")

    def __str__(self):
        return f"{self.series}{self.rank}"


@dataclass(frozen=True)
class Root:
    """A root, identified by its integer decomposition over the simple roots."""

    decomp: tuple

    def is_positive(self) -> bool:
        return any(c > 0 for c in self.decomp)

    def __str__(self):
        return render_simple_form(self.decomp)


def render_simple_form(decomp) -> str:
    parts = []
    for i, c in enumerate(decomp):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+", f"{mag}a{i + 1}"))
    return join_signed(parts) if parts else "0"


class RootSystem:
    """Immutable root system with Cartan matrix and admissibility queries."""

    def __init__(self, cartan_type: CartanType):
        self.type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix, self.symmetrizers, self._euclid_simple = _cartan_data(
            cartan_type
        )
        self._euclid = {}
        if self._euclid_simple is not None:
            # the Euclidean simple roots as sparse integer rows over one denominator
            den = lcm(*(v.denominator for row in self._euclid_simple for v in row))
            self._euclid_int = den, [
                [(k, int(v * den)) for k, v in enumerate(row) if v]
                for row in self._euclid_simple
            ]
        # scaled inner products (alpha_i, alpha_j); symmetric by construction
        self.bilinear = tuple(
            tuple(self.symmetrizers[i] * self.cartan_matrix[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        for i in range(self.rank):
            for j in range(i):
                if self.bilinear[i][j] != self.bilinear[j][i]:
                    raise RootSystemError(
                        f"{cartan_type}: symmetrizers {self.symmetrizers} do not "
                        f"symmetrize the Cartan matrix at ({i + 1}, {j + 1})"
                    )
        all_decomps = _close_under_reflections(self.cartan_matrix, self.rank)
        self._root_set = all_decomps
        positives = sorted(d for d in all_decomps if any(c > 0 for c in d))
        self.positive_roots = [Root(d) for d in positives]
        expected = _expected_positive_count(cartan_type)
        if expected is not None and len(self.positive_roots) != expected:
            raise RootSystemError(
                f"{cartan_type}: built {len(self.positive_roots)} positive roots, "
                f"expected {expected}"
            )
        self.simple_roots = [
            Root(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        ]
        self.coxeter_number = len(all_decomps) // self.rank

    # -- basic queries -------------------------------------------------------

    def is_root(self, decomp) -> bool:
        return tuple(decomp) in self._root_set

    def inner(self, u, v) -> int:
        """Scaled inner product of two simple-root coordinate vectors."""
        B = self.bilinear
        return sum(
            u[i] * B[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if u[i] and v[j]
        )

    def root_length_sq(self, root: Root) -> int:
        return self.inner(root.decomp, root.decomp)

    def euclid_coords(self, root: Root):
        """Euclidean coordinates, or None for types built from the Cartan matrix.

        Computed once per root and kept on the instance."""
        if self._euclid_simple is None:
            return None
        hit = self._euclid.get(root.decomp)
        if hit is None:
            den, rows = self._euclid_int
            out = [0] * len(self._euclid_simple[0])
            for c, row in zip(root.decomp, rows):
                if c:
                    for k, v in row:
                        out[k] += c * v
            hit = self._euclid[root.decomp] = tuple(Fraction(v, den) for v in out)
        return hit

    def render_root(self, root: Root) -> str:
        if self._euclid_simple is not None and self.type.series != "G":
            s = _render_euclid(self.euclid_coords(root))
            if s is not None:
                return s
        return render_simple_form(root.decomp)

    def find_root(self, decomp) -> Root:
        t = tuple(decomp)
        if t not in self._root_set:
            raise RootSystemError(f"{render_simple_form(t)} is not a root of {self.type}")
        return Root(t)


def build_root_system(cartan_type: CartanType) -> RootSystem:
    return RootSystem(cartan_type)


# ---------------------------------------------------------------------------
# Root strings and admissibility.
# ---------------------------------------------------------------------------

STRING_SCAN_BOUND = 4


def root_string(rs: RootSystem, alpha: Root, beta: Root) -> set:
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


def is_admissible(rs: RootSystem, beta: Root) -> bool:
    """True iff no root string through beta contains three consecutive integers.

    A string alpha + Z*beta holds three consecutive integers exactly when
    some root gamma on it has gamma + beta and gamma + 2*beta both roots, so
    that is what is tested, with no string scan.
    """
    if not rs.is_root(beta.decomp):
        raise RootSystemError(f"{beta} is not a root of {rs.type}")
    b = beta.decomp
    return not any(
        rs.is_root(tuple(g + c for g, c in zip(gamma, b)))
        and rs.is_root(tuple(g + 2 * c for g, c in zip(gamma, b)))
        for gamma in rs._root_set
    )


def admissible_positive_roots(rs: RootSystem):
    return [b for b in rs.positive_roots if is_admissible(rs, b)]


# ---------------------------------------------------------------------------
# Construction data per type.
# ---------------------------------------------------------------------------

def _expected_positive_count(t: CartanType):
    n = t.rank
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "G": 6,
        "F": 24,
        "E": {6: 36, 7: 63, 8: 120}[n] if t.series == "E" else None,
    }[t.series]


def _cartan_from_euclid(simples, inner):
    n = len(simples)
    A = [
        [Fraction(2) * inner(simples[i], simples[j]) / inner(simples[i], simples[i]) for j in range(n)]
        for i in range(n)
    ]
    out = []
    for row in A:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise RootSystemError("non-integral Cartan matrix entry")
            irow.append(int(x))
        out.append(tuple(irow))
    lengths = [inner(s, s) for s in simples]
    shortest = min(lengths)
    d = []
    for L in lengths:
        di = Fraction(L, shortest)
        if di.denominator != 1:
            raise RootSystemError("non-integral symmetrizer")
        d.append(int(di))
    return tuple(out), tuple(d)


def _cartan_data(t: CartanType):
    """Cartan matrix (a_ij = 2(ai,aj)/(ai,ai)), symmetrizers, Euclid simples."""
    n = t.rank
    s = t.series
    if s in "ABCD":
        dim = {"A": n + 1, "B": n, "C": n, "D": n}[s]

        def L(i):
            return tuple(Fraction(1 if k == i else 0) for k in range(dim))

        def vsub(u, v):
            return tuple(a - b for a, b in zip(u, v))

        def vadd(u, v):
            return tuple(a + b for a, b in zip(u, v))

        # L_i - L_{i+1}: all n simple roots of A, the first n - 1 of B, C, D
        simples = [vsub(L(i), L(i + 1)) for i in range(min(n, dim - 1))]
        if s == "B":
            simples.append(L(n - 1))
        elif s == "C":
            simples.append(tuple(2 * c for c in L(n - 1)))
        elif s == "D":
            simples.append(vadd(L(n - 2), L(n - 1)))

        def inner(u, v):
            return sum(a * b for a, b in zip(u, v))

        A, d = _cartan_from_euclid(simples, inner)
        return A, d, tuple(simples)

    if s == "G":
        # coordinates (x, y) mean x*e1 + y*sqrt(3)*e2 with x, y rational
        a1 = (Fraction(1), Fraction(0))
        a2 = (Fraction(-3, 2), Fraction(1, 2))

        def inner(u, v):
            return u[0] * v[0] + 3 * u[1] * v[1]

        A, d = _cartan_from_euclid([a1, a2], inner)
        return A, d, (a1, a2)

    if s == "F":
        A = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
        return A, (2, 2, 1, 1), None

    if s == "E":
        if n != 6:
            raise RootSystemError(f"E{n} is not supported (only E6)")
        # nodes: chain 1-3-4-5-6 with 2 attached to 4
        edges = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            A[i - 1][j - 1] = A[j - 1][i - 1] = -1
        return tuple(tuple(r) for r in A), (1,) * n, None

    raise RootSystemError(f"unsupported type {t}")


def _close_under_reflections(A, n):
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                pairing = sum(A[i][j] * v[j] for j in range(n) if v[j])
                w = list(v)
                w[i] -= pairing
                w = tuple(w)
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new
    return roots


# ---------------------------------------------------------------------------
# Root literals: "L1-L4", "2L1", "L1+L2", "a2", "3a1+2a2".
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)\s*(\d*)\s*(?:\*\s*)?(l|a)(\d+)", re.IGNORECASE)


def parse_root(rs: RootSystem, text: str) -> Root:
    """The positive root a literal names; RootSystemError for anything else."""
    root = rs.find_root(_literal_decomp(rs, text))
    if not root.is_positive():
        raise RootSystemError(
            f"{text.strip()!r} is the negative root {root} of {rs.type}; "
            "give a positive root"
        )
    return root


def _literal_decomp(rs: RootSystem, text: str) -> tuple:
    cleaned = text.strip()
    if not cleaned:
        raise RootSystemError("empty root literal")
    pos = 0
    terms = []
    for m in _TERM_RE.finditer(cleaned):
        if cleaned[pos:m.start()].strip():
            raise RootSystemError(f"cannot parse root literal {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        kind = m.group(3).lower()
        idx = int(m.group(4))
        terms.append((sign * coef, kind, idx))
        pos = m.end()
    if not terms or cleaned[pos:].strip():
        raise RootSystemError(f"cannot parse root literal {text!r}")
    kinds = {k for _, k, _ in terms}
    if len(kinds) != 1:
        raise RootSystemError(f"mixed L/a forms in root literal {text!r}")
    if kinds == {"a"}:
        decomp = [0] * rs.rank
        for c, _, idx in terms:
            if not 1 <= idx <= rs.rank:
                raise RootSystemError(f"simple-root index out of range in {text!r}")
            decomp[idx - 1] += c
        return tuple(decomp)
    if rs._euclid_simple is None:
        raise RootSystemError(
            f"Euclidean literals are not available for {rs.type}; use a-form"
        )
    dim = len(rs._euclid_simple[0])
    target = [Fraction(0)] * dim
    for c, _, idx in terms:
        if not 1 <= idx <= dim:
            raise RootSystemError(f"coordinate index out of range in {text!r}")
        target[idx - 1] += c
    decomp = _solve_decomp(rs._euclid_simple, target)
    if decomp is None:
        raise RootSystemError(f"{text!r} is not in the root lattice of {rs.type}")
    return decomp


def _solve_decomp(simples, target):
    """Express target over the simple-root coordinate vectors, or None."""
    n = len(simples)
    rows = [([s[k] for s in simples], t) for k, t in enumerate(target)]
    found = solve_affine(rows, n)
    if found is None:
        return None
    sol = [found.get(j, Fraction(0)) for j in range(n)]
    # verify and integrality
    for k in range(len(target)):
        if sum(sol[j] * simples[j][k] for j in range(n)) != target[k]:
            return None
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def _render_euclid(coords):
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if c.denominator != 1:
            return None
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+", f"{mag}L{i + 1}"))
    return join_signed(parts) if parts else None
