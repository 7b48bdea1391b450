"""Root systems for types A-G with exact arithmetic.

A root is its tuple of integer coordinates over the simple roots, and nothing
else: the root system's lists, lookups and the literal parser all hand out
those tuples, and `render_simple_form` writes one as text.  The classical
types and G2 also carry Euclidean simple roots, as integer rows over one
denominator (1 for A-D, 2 for G2) under a diagonal integer form (G2's second
coordinate carries an implicit factor sqrt(3), so the form weighs it by 3);
the Cartan matrix and symmetrizers are read from their integer pairings, and
the rows serve rendering, literal parsing and cross-checks.  An L-literal is looked up: its coordinate vector is compared
with the Euclidean coordinates of every root, positive and negative, so a
literal that names no root, in the root lattice or not, gets one error.

The admissibility filter selects the positive roots beta whose root strings
(alpha + Z*beta) intersected with R never contain three consecutive integers;
those are exactly the roots for which ad_{e_beta}^2 kills the r-matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .qfield import join_signed


class RootSystemError(ValueError):
    pass


VALID_SERIES = ("A", "B", "C", "D", "E", "F", "G")


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


def render_simple_form(decomp, letter="a") -> str:
    """E.g. "a1+2a2", or "L1-L3" for Euclidean coordinates with letter "L"."""
    parts = []
    for i, c in enumerate(decomp):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+", f"{mag}{letter}{i + 1}"))
    return join_signed(parts) if parts else "0"


class RootSystem:
    """Immutable root system with Cartan matrix and admissibility queries."""

    def __init__(self, cartan_type: CartanType):
        self.type = cartan_type
        self.rank = cartan_type.rank
        # _euclid: (denominator, integer rows) of the Euclidean simple roots,
        # or None for the types built from their Cartan matrix (F4, E6-E8)
        self.cartan_matrix, self.symmetrizers, self._euclid = _cartan_data(cartan_type)
        self._coords = {}
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
        self.positive_roots = sorted(d for d in all_decomps if any(c > 0 for c in d))
        expected = _expected_positive_count(cartan_type)
        if expected is not None and len(self.positive_roots) != expected:
            raise RootSystemError(
                f"{cartan_type}: built {len(self.positive_roots)} positive roots, "
                f"expected {expected}"
            )
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        ]

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

    @cached_property
    def pairing_ratio(self) -> Fraction:
        """kappa with sum_{gamma > 0} (gamma, alpha)^2 = kappa (alpha, alpha)
        for every root alpha.

        The form sum over all roots of (gamma, v)^2 is W-invariant, so on an
        irreducible root system it is a multiple of (v, v); kappa is read off
        the first simple root."""
        b = self.bilinear[0]
        total = sum(sum(c * v for c, v in zip(g, b)) ** 2 for g in self.positive_roots)
        return Fraction(total, b[0])

    def euclid_coords(self, root: tuple):
        """Euclidean coordinates, or None for types built from the Cartan matrix.

        Computed once per root and kept on the instance."""
        if self._euclid is None:
            return None
        hit = self._coords.get(root)
        if hit is None:
            den, rows = self._euclid
            hit = self._coords[root] = tuple(
                Fraction(sum(c * v for c, v in zip(root, column)), den)
                for column in zip(*rows)
            )
        return hit

    def render_root(self, root: tuple) -> str:
        """Li-form for A-D, whose Euclidean coordinates are integers; a-form
        for every other type."""
        if self.type.series in "ABCD":
            return render_simple_form(self.euclid_coords(root), "L")
        return render_simple_form(root)

    def find_root(self, decomp) -> tuple:
        t = tuple(decomp)
        if t not in self._root_set:
            raise RootSystemError(f"{render_simple_form(t)} is not a root of {self.type}")
        return t


@cache
def build_root_system(cartan_type: CartanType) -> RootSystem:
    """The root system of a Cartan type, built on the first call for that
    type and shared by every later call in the process.  Callers only read
    it; the per-root caches it fills as it is queried are the same for every
    caller."""
    return RootSystem(cartan_type)


# ---------------------------------------------------------------------------
# Root strings and admissibility.
# ---------------------------------------------------------------------------

def is_admissible(rs: RootSystem, beta: tuple) -> bool:
    """True iff no root string through beta contains three consecutive integers.

    A string alpha + Z*beta holds three consecutive integers exactly when
    some root gamma on it has gamma + beta and gamma + 2*beta both roots, so
    that is what is tested, with no string scan.
    """
    if not rs.is_root(beta):
        raise RootSystemError(f"{render_simple_form(beta)} is not a root of {rs.type}")
    return not any(
        rs.is_root(tuple(g + c for g, c in zip(gamma, beta)))
        and rs.is_root(tuple(g + 2 * c for g, c in zip(gamma, beta)))
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


def _cartan_from_euclid(rows, weights):
    """Cartan matrix and symmetrizers of simple roots given as integer rows
    under the diagonal form with the given integer weights."""
    gram = [[sum(w * a * b for w, a, b in zip(weights, u, v)) for v in rows] for u in rows]
    lengths = [gram[i][i] for i in range(len(rows))]
    A = []
    for L, pairings in zip(lengths, gram):
        if any(2 * p % L for p in pairings):
            raise RootSystemError("non-integral Cartan matrix entry")
        A.append(tuple(2 * p // L for p in pairings))
    shortest = min(lengths)
    if any(L % shortest for L in lengths):
        raise RootSystemError("non-integral symmetrizer")
    return tuple(A), tuple(L // shortest for L in lengths)


def _cartan_data(t: CartanType):
    """Cartan matrix (a_ij = 2(ai,aj)/(ai,ai)), symmetrizers, and the
    Euclidean simple roots as (denominator, integer rows), or None."""
    n = t.rank
    s = t.series
    if s == "F":
        A = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
        return A, (2, 2, 1, 1), None

    if s == "E":
        # Bourbaki's labelling: the chain 1-3-4-...-n with 2 attached to 4
        edges = {(1, 3), (2, 4)} | {(k, k + 1) for k in range(3, n)}
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            A[i - 1][j - 1] = A[j - 1][i - 1] = -1
        return tuple(tuple(r) for r in A), (1,) * n, None

    if s == "G":
        # row (x, y) over 2 is x/2 * e1 + y/2 * sqrt(3) * e2
        den, weights, rows = 2, (1, 3), ((2, 0), (-3, 1))
    else:
        dim = n + 1 if s == "A" else n
        rows = [[0] * dim for _ in range(n)]
        # L_i - L_{i+1}: all n simple roots of A, the first n - 1 of B, C, D;
        # the last of B, C and D is L_n, 2L_n and L_{n-1} + L_n
        for i in range(min(n, dim - 1)):
            rows[i][i:i + 2] = 1, -1
        if s != "A":
            rows[-1][-2:] = {"B": (0, 1), "C": (0, 2), "D": (1, 1)}[s]
        den, weights = 1, (1,) * dim
    A, d = _cartan_from_euclid(rows, weights)
    return A, d, (den, tuple(map(tuple, rows)))


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


def parse_root(rs: RootSystem, text: str) -> tuple:
    """The positive root a literal names; RootSystemError for anything else."""
    root = rs.find_root(_literal_decomp(rs, text))
    if not any(c > 0 for c in root):
        raise RootSystemError(
            f"{text.strip()!r} is the negative root {render_simple_form(root)} of {rs.type}; "
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
        # every term after the first needs its sign: "a1a2" is no sum
        if cleaned[pos:m.start()].strip() or (terms and not m.group(1)):
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
    if rs._euclid is None:
        raise RootSystemError(
            f"Euclidean literals are not available for {rs.type}; use a-form"
        )
    target = [0] * len(rs._euclid[1][0])
    for c, _, idx in terms:
        if not 1 <= idx <= len(target):
            raise RootSystemError(f"coordinate index out of range in {text!r}")
        target[idx - 1] += c
    # the Euclidean coordinates determine a root, so at most one matches
    target = tuple(target)
    for decomp in rs._root_set:
        if rs.euclid_coords(decomp) == target:
            return decomp
    raise RootSystemError(f"{text!r} is not a root of {rs.type}")

