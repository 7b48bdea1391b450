"""Sparse exact linear algebra over any field: the package's one engine.

Vectors are dicts mapping hashable coordinate keys to nonzero field values.
The engine uses only ``+ - * /`` on the values, so RatFunc (Q(q)) and
Fraction (Q) vectors go through the same code.  Every elimination in the
package (normal-form tables, membership solves, the q = 1 fit, classical
spans and coordinates, root-lattice decompositions) is a `SpanSolver`: vectors
go in with `add`, optionally tagged, and come out as a `solve`, the
dependent tags in `nullrows`, or the `negated_reduced_rows`.  Every "add
into a sparse dict and drop zeros" loop is `accumulate` or `vec_add_scaled`.
"""

from __future__ import annotations

from .qfield import RF_ONE


def accumulate(acc: dict, items) -> dict:
    """acc[k] += v for every (k, v) in items, in place, dropping zeros."""
    for k, v in items:
        w = acc.get(k)
        if w is not None:
            v = w + v
        if v:
            acc[k] = v
        elif w is not None:
            del acc[k]
    return acc


def vec_add_scaled(acc: dict, vec: dict, scale=None) -> dict:
    """acc += scale * vec (acc += vec when scale is None), in place, dropping zeros."""
    if scale is None:
        return accumulate(acc, vec.items())
    # written out: this is the innermost loop of normal-form folding
    for k, v in vec.items():
        w = acc.get(k)
        v = v * scale if w is None else w + v * scale
        if v:
            acc[k] = v
        elif w is not None:
            del acc[k]
    return acc


class SpanSolver:
    """Incremental row-echelon span of sparse vectors, optionally tagged.

    The leading key of a vector is its least key.  Each stored row has a
    leading key (its pivot) that no other stored row leads with; the pivot
    coefficient is 1 and is kept implicit, so a row is stored as its tail.
    A tag is a vector over labels of the added vectors that records which
    combination of them a row is; solving a target over a tagged span yields
    its coefficients over those labels.  Tails and tags are stored negated
    (normalized by -1 / lead once, when the row is added), so eliminating a
    pivot entry c adds c times the stored row, with no negation per step.
    """

    def __init__(self):
        # pivot -> (negated tail, the unit pivot entry left out; negated tag
        # or None)
        self.rows: dict = {}
        self.nullrows: list = []  # tags of added vectors that were dependent

    def reduce(self, vec: dict, tag: dict | None = None):
        """Subtract rows from copies of vec (and tag) until the leading key of
        vec is not a pivot; returns (vec, tag, that leading key or None when
        vec reduced to zero)."""
        vec = dict(vec)
        if tag is not None:
            tag = dict(tag)
        rows = self.rows
        while vec:
            pivot = min(vec)
            hit = rows.get(pivot)
            if hit is None:
                return vec, tag, pivot
            c = vec.pop(pivot)
            vec_add_scaled(vec, hit[0], c)
            if tag is not None:
                vec_add_scaled(tag, hit[1], c)
        return vec, tag, None

    def add(self, vec: dict, tag: dict | None = None) -> bool:
        """Insert a vector; returns True if it increased the rank.

        A dependent tagged vector leaves its reduced tag in `nullrows`; the
        stored tags hold only earlier vectors' labels, so a fresh tag
        {label: 1} keeps its own label there with coefficient 1, and with
        labels added in increasing order as its largest key.  The flatness
        check reads each commutator off a product span's relations by this
        (`verify._solve_flatness_pair`).
        """
        vec, tag, pivot = self.reduce(vec, tag)
        if pivot is None:
            if tag:
                self.nullrows.append(tag)
            return False
        inv = -1 / vec.pop(pivot)
        vec = {k: v * inv for k, v in vec.items()}
        if tag is not None:
            tag = {k: v * inv for k, v in tag.items()}
        self.rows[pivot] = (vec, tag)
        return True

    def solve(self, target: dict):
        """Coefficients over the tags expressing target, or None if target is
        not in the span.  With `nullrows` this describes every solution."""
        _, tag, pivot = self.reduce(target, {})
        if pivot is not None:
            return None
        return {k: -v for k, v in tag.items()}

    def contains(self, vec: dict) -> bool:
        return self.reduce(vec)[2] is None

    def negated_reduced_rows(self) -> dict:
        """The reduced row echelon form, {pivot: tail} in pivot order, with
        every tail negated and free of pivot keys: each pivot key equals its
        negated tail modulo the span, so these are the pivots' rewrites."""
        # back-substitution on the stored negated tails: row -= row[k] * tail_k
        # negates to neg += neg[k] * neg_k
        out = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p][0])
            for k in [k for k in row if k in out]:
                vec_add_scaled(row, out[k], row.pop(k))
            out[p] = row
        return dict(reversed(out.items()))


def solve_linear_combination(templates, target: dict):
    """Solve target = sum_i c_i * templates[i][1].

    templates: iterable of (label, vector) pairs.
    Returns (coeffs: {label: value}, nullspace: [ {label: value} ]) or
    (None, nullspace) when the system is inconsistent.
    """
    solver = SpanSolver()
    for label, vec in templates:
        solver.add(vec, {label: RF_ONE})
    coeffs = solver.solve(target)
    return coeffs, solver.nullrows
