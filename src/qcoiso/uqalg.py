"""The non-negative Borel part of a quantized enveloping algebra.

Elements (NCPoly) are finite sums of terms K^v * E_{w_1} ... E_{w_d} indexed
by an integer K-exponent vector v and a word w over the generator alphabet,
with coefficients in Q(q).  K-factors are kept normal-ordered on the left;
words stay free.  K_i E_j K_i^-1 = q^(alpha_i, alpha_j) E_j, so
K^v E_w = q^(v, wt w) E_w K^v with the form of `RootSystem.bilinear`, the
one source of every crossing factor.  An element's multidegree comes from
`NCPoly.multidegree()` only.  Reduction modulo the q-Serre ideal happens
only inside membership solves, through per-multidegree normal-form tables
built from the relation span, so large word spaces are never materialized.
The defining relations R_ij are read through one accessor,
`UqBorel.serre_relations()`.  Products, q-brackets and the coproduct are
`UqBorel` methods (`x * y` calls `nc_mul`); an element is zero exactly when
it is false, and `*` by a RatFunc or an int scales it.

The normal-form table at a multidegree mu is constructed incrementally: the
quotient at mu is spanned by {b . E_i} over the quotient bases at mu-alpha_i,
and the only new relations are the folded images of b . R over the Serre
relations R with content inside mu.  Row reduction of those images yields the
quotient basis (the non-pivot words) and the rewrite map used for folding at
the next degree up.  The candidate words at mu all have one length, and they
are ordered as words (deglex, the one word order).

Each word is folded to its normal form once per algebra (one `verify`
command): a memo on the algebra maps words to normal-form vectors, which
callers share and only read, and tables and memo intern their coefficients
(one object per value).  The product-span solve never expands a generator
product: the normal form of p * g comes from that of its label prefix p, by
folding each basis word b of nf(p) through the words of g with the K-crossing
factor of b.  This holds because the ideal is two-sided and a basis word folds
to itself.  Products are enumerated as labels ("A*B*C"), and
`label_product` is the one place a labelled product is multiplied out, for
the certificates that name it; the label lists are memoized per algebra by
the generators' degrees and the target multidegree.

Ideal certificates are solved over the greedy basis of the u . R . v
templates at a content: the templates, in `ideal_templates` order, that are
independent of every template before them.  A tagged incremental elimination
over every template expresses an element over this basis only, since each
stored row's tag combines independent templates; the basis is independent, so
that expression is unique, and a solve over the basis alone returns the same
coefficients.  The basis is found once per content by one untagged
elimination and lives as long as the algebra.  That search, like the relation
rows of the tables, runs over one relation per commuting pair: for a_ij = 0,
R_ji = -R_ij, and R_ij comes first, so no R_ji template is ever in the basis.
A certificate is re-expanded by concatenating words, as every K-prefix
stands left of every E.  The on-disk cache stores tables only; the memo, the
bases and the label lists stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import SpanSolver, accumulate, vec_add_scaled
from .qfield import RF_ONE, RatFunc, q_binomial
from .rootsys import RootSystem


class UqAlgebraError(ValueError):
    pass


class DegreeOverflowError(UqAlgebraError):
    pass


# ---------------------------------------------------------------------------
# Elements.
# ---------------------------------------------------------------------------

def render_monomial(kexp, word) -> str:
    """The basis monomial K^kexp E_word as text, e.g. "K1 K2^2 E1 E3", or "1"."""
    factors = [f"K{i + 1}" if v == 1 else f"K{i + 1}^{v}" for i, v in enumerate(kexp) if v]
    factors.extend(f"E{i + 1}" for i in word)
    return " ".join(factors) if factors else "1"


class NCPoly:
    """A Borel element: {(kexp, word): coefficient} with zero coefficients
    stripped.  Instances are treated as immutable."""

    __slots__ = ("alg", "terms", "_multidegree")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms
        self._multidegree = None

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max((len(w) for _, w in self.terms), default=0)

    def multidegree(self):
        """(kexp, content) shared by every term, or raise if mixed; computed
        once per element."""
        if self._multidegree is None:
            degrees = {(kexp, self.alg.content_of(word)) for kexp, word in self.terms}
            if len(degrees) != 1:
                raise UqAlgebraError("element is not multihomogeneous")
            self._multidegree = degrees.pop()
        return self._multidegree

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __add__(self, other):
        return NCPoly(self.alg, vec_add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly(self.alg, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """The product with an element, or the multiple by a scalar (RatFunc or int)."""
        if isinstance(other, NCPoly):
            return self.alg.nc_mul(self, other)
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not other:
            return NCPoly(self.alg, {})
        return NCPoly(self.alg, {k: v * other for k, v in self.terms.items()})

    __rmul__ = __mul__

    def components(self):
        """Split into multihomogeneous parts keyed by (kexp, content)."""
        out = {}
        for (kexp, word), c in self.terms.items():
            key = (kexp, self.alg.content_of(word))
            out.setdefault(key, {})[(kexp, word)] = c
        return {k: NCPoly(self.alg, v) for k, v in out.items()}

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for (kexp, word) in sorted(self.terms, key=lambda t: (t[0], len(t[1]), t[1])):
            c = self.terms[(kexp, word)]
            bits.append(f"{c.render()} * {render_monomial(kexp, word)}")
        return "  +  ".join(bits)

    def __repr__(self):
        return self.render()


class TensorElem:
    """An element of the two-fold tensor square, with NCPoly-style legs."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TensorElem) and self.terms == other.terms

    def __add__(self, other):
        return TensorElem(self.alg, vec_add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + TensorElem(self.alg, {k: -c for k, c in other.terms.items()})

    def __mul__(self, other):
        tm = self.alg.term_mul
        pairs = (
            (tm(l1, l2), tm(r1, r2), c1 * c2)
            for (l1, r1), c1 in self.terms.items()
            for (l2, r2), c2 in other.terms.items()
        )
        terms = (((lt, rt), c * lc * rc) for (lt, lc), (rt, rc), c in pairs)
        return TensorElem(self.alg, accumulate({}, terms))


# ---------------------------------------------------------------------------
# The algebra context.
# ---------------------------------------------------------------------------

class UqBorel:
    def __init__(self, rs: RootSystem, max_degree: int = 10):
        self.rs = rs
        self.rank = rs.rank
        self.A = rs.cartan_matrix
        self.d = rs.symmetrizers
        self.max_degree = max_degree
        self._tables = {}
        # word -> normal form over the quotient basis; entries are shared
        # with every caller and never change, as the tables never do
        self._nf = {}
        # one object per distinct coefficient value in tables and memo
        self._coeffs = {}
        # content -> greedy basis [(label, {word: coeff})] of the u.R.v
        # templates, as bare dicts: an NCPoly would refer back to the algebra
        self._ideal_bases = {}
        # (generator degrees, kexp, weight, min_factors) -> product labels
        self._products = {}
        # (i, j) -> (content, {word: coeff}) of each relation, as bare
        # vectors: stored NCPolys would refer back to the algebra, a cycle
        # that keeps a finished algebra's tables and memo alive until the
        # next full garbage collection
        self._serre = {
            (i, j): self._serre_relation(i, j)
            for i in range(self.rank)
            for j in range(self.rank)
            if i != j
        }
        # the relations that generate the ideal: for a commuting pair
        # (a_ij = 0) R_ji = -R_ij, so only the first of the two is kept
        self._generating = {
            (i, j): rel for (i, j), rel in self._serre.items()
            if i < j or self.A[i][j]
        }

    # -- element constructors ----------------------------------------------

    def zero(self) -> NCPoly:
        return NCPoly(self, {})

    def one(self) -> NCPoly:
        return NCPoly(self, {((0,) * self.rank, ()): RF_ONE})

    def gen(self, i: int) -> NCPoly:
        """E_{i+1} for 0-based index i."""
        if not 0 <= i < self.rank:
            raise UqAlgebraError(f"generator index {i} out of range")
        return NCPoly(self, {((0,) * self.rank, (i,)): RF_ONE})

    def k_monomial(self, kexp) -> NCPoly:
        kexp = tuple(kexp)
        if len(kexp) != self.rank:
            raise UqAlgebraError("K-exponent vector has wrong length")
        return NCPoly(self, {(kexp, ()): RF_ONE})

    def content_of(self, word):
        content = [0] * self.rank
        for l in word:
            content[l] += 1
        return tuple(content)

    # -- multiplication -----------------------------------------------------

    def term_mul(self, t1, t2):
        """Product of two normal-ordered terms: (term, q-power factor)."""
        (k1, w1), (k2, w2) = t1, t2
        shift = 0
        if any(k2):
            B = self.rs.bilinear
            for l in w1:
                shift -= sum(k2[i] * B[i][l] for i in range(self.rank) if k2[i])
        term = (tuple(a + b for a, b in zip(k1, k2)), w1 + w2)
        return term, RatFunc.q_power(shift)

    def nc_mul(self, a: NCPoly, b: NCPoly) -> NCPoly:
        if a.alg is not b.alg:
            raise UqAlgebraError("elements of different algebras")
        tm = self.term_mul
        pairs = ((tm(t1, t2), c1 * c2) for t1, c1 in a.terms.items() for t2, c2 in b.terms.items())
        return NCPoly(self, accumulate({}, ((term, c * f) for (term, f), c in pairs)))

    def q_bracket(self, a: NCPoly, b: NCPoly, k: int) -> NCPoly:
        """[a, b]_{q^k} = a b - q^k b a."""
        return self.nc_mul(a, b) - RatFunc.q_power(k) * self.nc_mul(b, a)

    # -- Serre relations ------------------------------------------------------

    def serre_relations(self) -> dict:
        """The q-Serre relations {(i, j): R_ij} for 0-based i != j."""
        zero = (0,) * self.rank
        return {
            ij: NCPoly(self, {(zero, w): c for w, c in rel.items()})
            for ij, (_, rel) in self._serre.items()
        }

    def _serre_relation(self, i, j):
        """(content, {word: coeff}) of R_ij, the sum over r of
        (-1)^r [m choose r] E_i^(m-r) E_j E_i^r in q^(d_i), with m = 1 - a_ij."""
        m = 1 - self.A[i][j]
        rel = {}
        for r in range(m + 1):
            c = q_binomial(m, r, self.d[i])
            if r % 2:
                c = -c
            rel[(i,) * (m - r) + (j,) + (i,) * r] = c
        return self.content_of((i,) * m + (j,)), rel

    # -- coproduct ------------------------------------------------------------

    def coproduct(self, x: NCPoly) -> TensorElem:
        out = {}
        for (kexp, word), coeff in x.terms.items():
            parts = {((kexp, ()), (kexp, ())): coeff}
            for l in word:
                parts = accumulate({}, self._coproduct_step(parts, l))
            vec_add_scaled(out, parts)
        return TensorElem(self, out)

    def _coproduct_step(self, parts, l):
        """Terms of parts * (E_l (x) K_l + 1 (x) E_l)."""
        kl = tuple(1 if i == l else 0 for i in range(self.rank))
        B = self.rs.bilinear
        for ((lk, lw), (rk, rw)), c in parts.items():
            # left := left * E_l, right := right * K_l (crossing)
            shift = -sum(B[l][m] for m in rw)
            right = (tuple(a + b for a, b in zip(rk, kl)), rw)
            yield ((lk, lw + (l,)), right), c * RatFunc.q_power(shift)
            # right := right * E_l
            yield ((lk, lw), (rk, rw + (l,))), c

    # -- the normal-form engine ------------------------------------------------

    def order_key(self, word):
        """Sort key of the candidate words of a table, which all have one
        length: the word itself (deglex).  Tests override it to check that
        verdicts do not depend on the order."""
        return word

    def table(self, mu):
        mu = tuple(mu)
        hit = self._tables.get(mu)
        if hit is not None:
            return hit
        if sum(mu) > self.max_degree:
            raise DegreeOverflowError(
                f"multidegree {mu} exceeds max_degree={self.max_degree}; "
                f"raise max_degree to verify at this depth"
            )
        return self._build_down_to(mu)

    def _build_down_to(self, mu):
        subs = sorted(product(*(range(m + 1) for m in mu)), key=lambda v: (sum(v), v))
        for sub in subs:
            if sub not in self._tables:
                self._tables[sub] = self._build_table(sub)
        return self._tables[mu]

    def _build_table(self, mu):
        deg = sum(mu)
        if deg == 0:
            return _NFTable(basis=[()], raise_map={})
        # candidate words: basis(mu - alpha_i) extended by the letter i
        candidates = []
        for i in range(self.rank):
            if mu[i] == 0:
                continue
            sub = tuple(m - (1 if j == i else 0) for j, m in enumerate(mu))
            for b in self._tables[sub].basis:
                candidates.append(b + (i,))
        candidates.sort(key=self.order_key)
        col = {w: n for n, w in enumerate(candidates)}
        # relation rows: folded images of b . R for every generating relation R
        relations = SpanSolver()
        for rel_content, rel in self._generating.values():
            nu = tuple(m - c for m, c in zip(mu, rel_content))
            if any(c < 0 for c in nu):
                continue
            for b in self._tables[nu].basis:
                row = {}
                for w, c in rel.items():
                    vec = self._fold_word(b, w[:-1], nu)
                    last = w[-1]
                    accumulate(row, ((col[bw + (last,)], c * cc) for bw, cc in vec.items()))
                relations.add(row)
        pivots = relations.reduced_rows()
        basis = [w for w in candidates if col[w] not in pivots]
        # rewrite map: candidate word -> vector over the new basis
        expand = {}
        for w in candidates:
            n = col[w]
            if n in pivots:
                expand[w] = self._interned((candidates[m], -c) for m, c in pivots[n].items())
            else:
                expand[w] = {w: RF_ONE}
        raise_map = {}
        for i in range(self.rank):
            if mu[i] == 0:
                continue
            sub = tuple(m - (1 if j == i else 0) for j, m in enumerate(mu))
            raise_map[i] = {
                b: expand[b + (i,)] for b in self._tables[sub].basis
            }
        return _NFTable(basis=basis, raise_map=raise_map)

    def _fold_word(self, b, letters, start_mu):
        """Normal form of the word b + letters, starting from basis word b."""
        vec = {b: RF_ONE}
        mu = list(start_mu)
        for l in letters:
            mu[l] += 1
            tbl = self._tables[tuple(mu)]
            rm = tbl.raise_map[l]
            nxt = {}
            for bw, c in vec.items():
                vec_add_scaled(nxt, rm[bw], c)
            vec = nxt
        return vec

    def _word_vec(self, b, letters):
        """Memoized normal form of the word b + letters, for a basis word b.

        The returned vector is the memo's own entry: read it, never mutate it.
        """
        word = b + letters
        vec = self._nf.get(word)
        if vec is None:
            self.table(self.content_of(word))
            folded = self._fold_word(b, letters, self.content_of(b))
            vec = self._nf[word] = self._interned(folded.items())
        return vec

    def _interned(self, items):
        """A vector from (key, coefficient) pairs, storing one object per
        distinct coefficient value: tables and memo hold thousands of
        coefficients but only tens of values."""
        coeffs = self._coeffs
        return {k: coeffs.setdefault(c, c) for k, c in items}

    def nf_word(self, word):
        """Normal form of a raw word as a vector over the quotient basis.

        The vector is shared through the algebra's memo: read it, never
        mutate it.
        """
        return self._word_vec((), tuple(word))

    def nf_components(self, x: NCPoly):
        """Normal forms per (kexp, content): {key: {basis word: coeff}}."""
        out = {}
        for (kexp, word), c in x.terms.items():
            key = (kexp, self.content_of(word))
            vec_add_scaled(out.setdefault(key, {}), self._word_vec((), word), c)
        return {k: v for k, v in out.items() if v}

    def nf_is_zero(self, x: NCPoly) -> bool:
        return not self.nf_components(x)

    def load_tables(self, path) -> bool:
        """Merge previously cached normal-form tables from disk; a file that
        cannot be read or holds no table payload is a miss."""
        import pickle

        if not path:
            return False
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:  # noqa: BLE001 - a torn or garbage file
            return False
        if not isinstance(payload, dict) or not isinstance(payload.get("tables"), dict):
            return False
        for mu, tbl in payload["tables"].items():
            self._tables.setdefault(mu, tbl)
        return True

    def save_tables(self, path) -> None:
        """Write a file beside path and move it into place, so that a run
        killed while writing leaves no torn cache."""
        import os
        import pickle

        if not path:
            return
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump({"tables": self._tables}, fh)
        os.replace(tmp, path)

    # -- explicit ideal membership ----------------------------------------------

    def ideal_templates(self, mu):
        """Labelled spanning elements u . R_{ij} . v of the ideal at content
        mu, over every Serre relation."""
        zero = (0,) * self.rank
        return [
            (label, NCPoly(self, {(zero, w): c for w, c in vec.items()}))
            for label, vec in self._template_vectors(mu, self._serre)
        ]

    def _template_vectors(self, mu, relations):
        """(label (u, ij, v), {u + w + v: coeff}) of each template u . R . v
        at content mu, for the relations {ij: (content, R)} in order."""
        words = {}

        def words_of(content):
            hit = words.get(content)
            if hit is None:
                hit = words[content] = _words_of_content(content)
            return hit

        for ij, (rel_content, rel) in relations.items():
            rem = tuple(m - c for m, c in zip(mu, rel_content))
            if any(c < 0 for c in rem):
                continue
            for ucontent in _subcontents(rem):
                vs = words_of(tuple(a - b for a, b in zip(rem, ucontent)))
                for u in words_of(ucontent):
                    for v in vs:
                        yield (u, ij, v), {u + w + v: c for w, c in rel.items()}

    def _ideal_basis(self, mu):
        """The greedy basis of the templates at content mu, as word vectors:
        the templates independent of every template before them.  It is
        searched over the generating relations only: a template of R_ji for
        a commuting pair is the negative of the R_ij template at the same
        place, which comes first, so it is never in the basis."""
        basis = self._ideal_bases.get(mu)
        if basis is None:
            span = SpanSolver()
            basis = [
                (label, vec)
                for label, vec in self._template_vectors(mu, self._generating)
                if span.add(vec)
            ]
            self._ideal_bases[mu] = basis
        return basis

    def ideal_membership(self, x: NCPoly):
        """Coefficients over u.R.v templates expressing x, or None.

        The element is split into multihomogeneous components; each must lie
        in the ideal at its own content.  K-prefixes factor out unchanged.
        Each component is solved over the greedy basis of the templates at its
        content, memoized on the algebra: the expression over the basis is
        unique, and it is the one a solve over every template returns.
        """
        from .linalg import solve_linear_combination

        solution = {}
        for (kexp, mu), comp in x.components().items():
            target = {w: c for (_, w), c in comp.terms.items()}
            coeffs, _ = solve_linear_combination(self._ideal_basis(mu), target)
            if coeffs is None:
                return None
            accumulate(solution, (((kexp, label), c) for label, c in coeffs.items()))
        return solution

    # -- membership in generator spans --------------------------------------

    def generator_products(self, gens, kexp, weight, min_factors=0):
        """Labels of the ordered generator products matching a multidegree.

        gens: [(name, NCPoly)] with each value multihomogeneous.  Returns the
        sorted labels ("A*B*C", or "1" for the empty product) of every
        sequence of at least min_factors generators (with repetition, all
        orderings) whose K-exponents and word contents sum to the target.
        Nothing is multiplied: `label_product` expands a label.  With
        non-negative K-exponents the target bounds the search, as every
        generator used has a nonzero K-exponent or content.  The labels
        depend only on the generators' names and degrees and the target, and
        are memoized per algebra on those; each call returns a fresh list.
        """
        degrees = tuple((name, *poly.multidegree()) for name, poly in gens)
        key = (degrees, tuple(kexp), tuple(weight), min_factors)
        hit = self._products.get(key)
        if hit is not None:
            return list(hit)
        data = [(name, gk, gw) for name, gk, gw in degrees if any(gk) or any(gw)]
        out = []
        # depth-first over (label, factor count, remaining kexp, remaining
        # content) on an explicit stack: a self-calling closure would be a
        # reference cycle holding the algebra until the next full collection
        stack = [("1", 0, tuple(kexp), tuple(weight))]
        while stack:
            label, nfactors, rk, rw = stack.pop()
            if not any(rk) and not any(rw):
                if nfactors >= min_factors:
                    out.append(label)
                continue
            for name, gk, gw in data:
                if any(a > b for a, b in zip(gk, rk)) or any(a > b for a, b in zip(gw, rw)):
                    continue
                stack.append((
                    f"{label}*{name}" if nfactors else name,
                    nfactors + 1,
                    tuple(a - b for a, b in zip(rk, gk)),
                    tuple(a - b for a, b in zip(rw, gw)),
                ))
        out.sort()
        self._products[key] = out
        return list(out)

    def label_product(self, label, gen_map) -> NCPoly:
        """The labelled generator product, multiplied out left to right."""
        if label == "1":
            return self.one()
        names = label.split("*")
        prod = gen_map[names[0]]
        for name in names[1:]:
            prod = self.nc_mul(prod, gen_map[name])
        return prod

    def subspace_membership(self, x: NCPoly, gens, min_factors=0):
        """Decide x in span{ordered products of >= min_factors gens} + ideal.

        Each component (kexp, content) of x is solved on its own, against the
        normal forms of the generator products with that K-exponent and
        content; no product is multiplied out.  Returns (coefficients or None,
        nullspace): the coefficients, keyed by product label, express x
        modulo the ideal, and the nullspace holds the relations among the
        products modulo the ideal.  Solving stops at the first component
        outside the span.
        """
        from .linalg import solve_linear_combination

        coeffs, nullspace = {}, []
        gen_map, nfs = dict(gens), {}
        for (kexp, mu), comp in x.components().items():
            templates = [
                (label, self._product_nf(label, gen_map, nfs))
                for label in self.generator_products(gens, kexp, mu, min_factors)
            ]
            sol, null = solve_linear_combination(templates, self._word_nf(comp))
            nullspace.extend(null)
            if sol is None:
                return None, nullspace
            vec_add_scaled(coeffs, sol)
        return coeffs, nullspace

    def _product_nf(self, label, gen_map, nfs):
        """Normal form of the labelled generator product, by basis word.

        The product p * g is never expanded: with nf(p) from the label prefix
        and the ideal two-sided, nf(p * g) is the sum of
        nf(p)[b] * c * q^s * nf(b + w) over basis words b and terms c K^k E_w
        of g, where q^s is the cost of moving K^k left past E_b (the same for
        every b, as p is multihomogeneous).  nfs memoizes labels for one
        generator set.
        """
        vec = nfs.get(label)
        if vec is not None:
            return vec
        prefix, _, name = label.rpartition("*")
        if not prefix:
            vec = self._word_nf(self.one() if label == "1" else gen_map[label])
        else:
            pvec = self._product_nf(prefix, gen_map, nfs)
            g = gen_map[name]
            vec = {}
            if pvec:
                gk = next(iter(g.terms))[0]
                _, scale = self.term_mul((gk, next(iter(pvec))), (gk, ()))
                for b, c in pvec.items():
                    c = c * scale
                    for (_, w), cg in g.terms.items():
                        vec_add_scaled(vec, self._word_vec(b, w), c * cg)
        nfs[label] = vec
        return vec

    def _word_nf(self, x: NCPoly):
        """Normal form of a multihomogeneous x, keyed by basis word alone."""
        return next(iter(self.nf_components(x).values()), {})

    def combination(self, coeffs, polys) -> NCPoly:
        """sum(c * polys[label] for label, c in coeffs.items()), in one pass."""
        acc = {}
        for label, c in coeffs.items():
            vec_add_scaled(acc, polys[label].terms, c)
        return NCPoly(self, acc)

    def expand_ideal_certificate(self, coeffs) -> NCPoly:
        """The sum of c * K^k E_u R_ij E_v over the certificate's terms
        {(k, (u, (i, j), v)): c}.  K^k stands left of every E, so no
        crossing factor arises and each term is a concatenation of words."""
        acc = {}
        for (kexp, (u, ij, v)), c in coeffs.items():
            _, rel = self._serre[ij]
            accumulate(acc, (((kexp, u + w + v), c * cr) for w, cr in rel.items()))
        return NCPoly(self, acc)


@dataclass
class _NFTable:
    basis: list
    raise_map: dict


def _subcontents(content):
    return sorted(product(*(range(c + 1) for c in content)))


def _words_of_content(content):
    """The distinct words of a content, in lexicographic order."""
    if not any(content):
        return [()]
    return [
        (i,) + word
        for i, c in enumerate(content)
        if c
        for word in _words_of_content(content[:i] + (c - 1,) + content[i + 1:])
    ]
