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
it is false, and `*` by a RatFunc or an int scales it.  The coproduct is a
term dict {(left term, right term): coeff} of the tensor square.

The normal-form table at a multidegree mu is constructed incrementally: the
quotient at mu is spanned by {b . E_i} over the quotient bases at mu-alpha_i,
and the only new relations are the folded images of b . R over the Serre
relations R with content inside mu.  Row reduction of those images yields the
quotient basis (the non-pivot words) and the rewrite map used for folding at
the next degree up.  The candidate words at mu all have one length, and they
are ordered as words (deglex, the one word order).

Every normal form comes from one fold, `_fold`, over a vector of states
{suffix: {basis word: coeff}} whose suffixes all have one length: a step
moves the first letter of each suffix onto its state's basis words through
the raise map of the next table, and states left with equal suffixes merge,
so a tail that many words share is folded once.  `nf_components` folds the
raw words of a component as one vector and `nf_word` one word.  The words of
a table's relation row are folded one at a time: merging their states would
reorder the row's entries, and with them the stored tables.  Folds return
fresh vectors and nothing is memoized by word: the intermediate states live
for one call.  An element is a plain value that stores no normal form, and
tables intern their coefficients (one object per value).

Both checks ask about one object per multidegree, the span of the ordered
generator products modulo the ideal: `product_span` eliminates their normal
forms, tagged by label, folding each generator once per span, and keeps
nothing: a check keeps the spans it needs for that check only (a span
depends on the generators' values, not only on their names).  A target is
solved against it, and a commutator, the difference of two products, is
read off the relations it leaves.  No generator product is expanded for
this: the normal form of p * g is the fold of the states
{w: q^s * nf(g)[w] * nf(p)} over the basis words w of nf(g), nf(p) from the
label prefix p and q^s the K-crossing factor of p.  This holds because the
ideal is two-sided and a basis word folds to itself.  Products are
enumerated as labels ("A*B*C"), and `label_product` is the one place a
labelled product is multiplied out, for the certificates that name it, but
for the two products a flatness pair has formed for its commutator.

Ideal certificates are solved over the greedy basis of the u . R . v
templates at a content: the templates, in `ideal_templates` order, that are
independent of every template before them.  A tagged incremental elimination
over every template expresses an element over this basis only, since each
stored row's tag combines independent templates; the basis is independent, so
that expression is unique, and a solve over the basis alone returns the same
coefficients.  The basis is found once per content by one untagged
elimination and its labels live as long as the algebra, each template's word
vector rebuilt from its relation when a solve needs it; the search stops once
the basis has the ideal's dimension at the content (its words less its
quotient basis), as every later template is then dependent.  That search,
like the relation rows of the tables, runs over one relation per commuting
pair: for a_ij = 0, R_ji = -R_ij, and R_ij comes first, so no R_ji template
is ever in the basis.
A certificate is re-expanded by concatenating words, as every K-prefix
stands left of every E.  The on-disk cache stores tables only, keyed by the
Cartan matrix and symmetrizers; the ideal bases stay in memory.  A cache
file is read through an unpickler that admits only the table and
coefficient classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from operator import add, le, mul, sub

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


# ---------------------------------------------------------------------------
# The algebra context.
# ---------------------------------------------------------------------------

class UqBorel:
    def __init__(self, rs: RootSystem, max_degree: int = 10):
        self.rs = rs
        self.rank = rs.rank
        self.max_degree = max_degree
        self._tables = {}
        # one object per distinct coefficient value in the tables
        self._coeffs = {}
        # content -> greedy basis [(u, ij, v)] of the u.R.v templates, as
        # labels: each vector is rebuilt from self._serre when it is solved
        self._ideal_bases = {}
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
            if i < j or rs.cartan_matrix[i][j]
        }

    # -- element constructors ----------------------------------------------

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
            # (k2, alpha_l) summed over the letters l of w1; B is symmetric
            B = self.rs.bilinear
            shift = -sum(sum(map(mul, k2, B[l])) for l in w1)
        term = (tuple(map(add, k1, k2)), w1 + w2)
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
        m = 1 - self.rs.cartan_matrix[i][j]
        rel = {}
        for r in range(m + 1):
            c = q_binomial(m, r, self.rs.symmetrizers[i])
            if r % 2:
                c = -c
            rel[(i,) * (m - r) + (j,) + (i,) * r] = c
        return self.content_of((i,) * m + (j,)), rel

    # -- coproduct ------------------------------------------------------------

    def coproduct(self, x: NCPoly) -> dict:
        """Delta(x) as {(left term, right term): coeff}, with E_i mapped to
        E_i (x) K_i + 1 (x) E_i and K^v to K^v (x) K^v."""
        out = {}
        for (kexp, word), coeff in x.terms.items():
            parts = {((kexp, ()), (kexp, ())): coeff}
            for l in word:
                parts = accumulate({}, self._coproduct_step(parts, l))
            vec_add_scaled(out, parts)
        return out

    def _coproduct_step(self, parts, l):
        """Terms of parts * (E_l (x) K_l + 1 (x) E_l)."""
        kl = tuple(1 if i == l else 0 for i in range(self.rank))
        crossing = self.rs.bilinear[l].__getitem__
        for ((lk, lw), (rk, rw)), c in parts.items():
            # left := left * E_l, right := right * K_l (crossing)
            shift = -sum(map(crossing, rw))
            right = (tuple(map(add, rk, kl)), rw)
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
        for sub in sorted(_subcontents(mu), key=sum):
            if sub not in self._tables:
                self._tables[sub] = self._build_table(sub)
        return self._tables[mu]

    def _build_table(self, mu):
        deg = sum(mu)
        if deg == 0:
            return _NFTable(basis=[()], raise_map={})
        # mu - alpha_i for each letter i that mu contains
        subs = {
            i: tuple(m - (1 if j == i else 0) for j, m in enumerate(mu))
            for i in range(self.rank)
            if mu[i]
        }
        # candidate words: basis(mu - alpha_i) extended by the letter i
        candidates = [b + (i,) for i, sub in subs.items() for b in self._tables[sub].basis]
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
                    vec = self._fold({w[:-1]: {b: RF_ONE}}, nu)
                    last = w[-1]
                    accumulate(row, ((col[bw + (last,)], c * cc) for bw, cc in vec.items()))
                relations.add(row)
        # pivot column -> the vector its word equals modulo the relations
        rewrites = relations.negated_reduced_rows()
        basis = [w for w in candidates if col[w] not in rewrites]
        # rewrite map: candidate word -> vector over the new basis
        expand = {}
        for w in candidates:
            n = col[w]
            if n in rewrites:
                expand[w] = self._interned((candidates[m], c) for m, c in rewrites[n].items())
            else:
                expand[w] = {w: RF_ONE}
        raise_map = {
            i: {b: expand[b + (i,)] for b in self._tables[sub].basis}
            for i, sub in subs.items()
        }
        return _NFTable(basis=basis, raise_map=raise_map)

    def _fold(self, states, mu):
        """Fold a nonempty vector of states through the tables down to the
        empty suffix, and return the vector they sum to over the quotient
        basis.

        A state {suffix: {b: c}} stands for the sum of c * (b + suffix); every
        suffix has one length, and every basis word b passed in has content
        mu.  A step moves the first letter of each suffix onto the basis words
        of its state through the raise map of the table one letter up, and
        merges the states left with equal suffixes, so a tail that many words
        share is folded once.  The tables the fold reads must exist.  The
        vectors passed in are only read; the one returned is fresh unless the
        suffixes were empty.
        """
        tables = self._tables
        staged = {suffix: (mu, vec) for suffix, vec in states.items()}
        for _ in range(len(next(iter(states)))):
            nxt = {}
            for suffix, (mu, vec) in staged.items():
                l, rest = suffix[0], suffix[1:]
                mu = mu[:l] + (mu[l] + 1,) + mu[l + 1:]
                rm = tables[mu].raise_map[l]
                hit = nxt.get(rest)
                if hit is None:
                    hit = nxt[rest] = (mu, {})
                out = hit[1]
                for b, c in vec.items():
                    vec_add_scaled(out, rm[b], c)
            staged = nxt
        return staged[()][1]

    def _interned(self, items):
        """A vector from (key, coefficient) pairs, storing one object per
        distinct coefficient value: tables hold thousands of coefficients but
        only tens of values."""
        coeffs = self._coeffs
        return {k: coeffs.setdefault(c, c) for k, c in items}

    def nf_word(self, word):
        """Normal form of a raw word as a fresh vector over the quotient basis."""
        word = tuple(word)
        self.table(self.content_of(word))
        return self._fold({word: {(): RF_ONE}}, (0,) * self.rank)

    def nf_components(self, x: NCPoly):
        """Normal forms per (kexp, content), {key: {basis word: coeff}}, as
        fresh vectors: the raw words of each component are folded together,
        as one vector of states."""
        zero = (0,) * self.rank
        states = {}
        for (kexp, word), c in x.terms.items():
            states.setdefault((kexp, self.content_of(word)), {})[word] = {(): c}
        out = {}
        for key, words in states.items():
            self.table(key[1])
            vec = self._fold(words, zero)
            if vec:
                out[key] = vec
        return out

    def _cache_key(self):
        """What a cache file must name to serve this algebra: the word order
        is fixed, so the Cartan matrix and symmetrizers decide the Serre
        relations and with them every table."""
        return (self.rs.cartan_matrix, self.rs.symmetrizers)

    def load_tables(self, path) -> bool:
        """Merge previously cached normal-form tables from disk; a file that
        cannot be read, holds no table payload, was written for another
        algebra or names any class but a table or a coefficient is a miss.
        Nothing else the file names is looked up, so loading it cannot call
        foreign code."""
        import pickle

        class TableUnpickler(pickle.Unpickler):
            def find_class(self, module, name):
                cls = _CACHE_CLASSES.get((module, name))
                if cls is None:
                    raise pickle.UnpicklingError(f"{module}.{name} is not a table class")
                return cls

        if not path:
            return False
        try:
            with open(path, "rb") as fh:
                payload = TableUnpickler(fh).load()
        except Exception:  # noqa: BLE001 - a torn or garbage file
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("algebra") != self._cache_key()
            or not isinstance(payload.get("tables"), dict)
        ):
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
            pickle.dump({"algebra": self._cache_key(), "tables": self._tables}, fh)
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

        for ij, (rel_content, _) in relations.items():
            rem = tuple(m - c for m, c in zip(mu, rel_content))
            if any(c < 0 for c in rem):
                continue
            for ucontent in _subcontents(rem):
                vs = words_of(tuple(a - b for a, b in zip(rem, ucontent)))
                for u in words_of(ucontent):
                    for v in vs:
                        yield (u, ij, v), _placed(relations, (u, ij, v))

    def _ideal_basis(self, mu):
        """The greedy basis of the templates at content mu, as labels: the
        templates independent of every template before them.  It is
        searched over the generating relations only: a template of R_ji for
        a commuting pair is the negative of the R_ij template at the same
        place, which comes first, so it is never in the basis.  The search
        stops at the ideal's dimension at mu, as every later template depends
        on the basis; a wrong table could only cut it short and fail a
        certificate, since every certificate is re-expanded."""
        basis = self._ideal_bases.get(mu)
        if basis is None:
            dim = _word_count(mu) - len(self.table(mu).basis)
            span = SpanSolver()
            basis = []
            for label, vec in self._template_vectors(mu, self._generating):
                if len(basis) == dim:
                    break
                if span.add(vec):
                    basis.append(label)
            self._ideal_bases[mu] = basis
        return basis

    def ideal_membership(self, x: NCPoly):
        """Coefficients over u.R.v templates expressing x, or None.

        The element is split into multihomogeneous components; each must lie
        in the ideal at its own content.  K-prefixes factor out unchanged.
        Each component is solved over the greedy basis of the templates at its
        content, memoized as labels on the algebra: the expression over the
        basis is unique, and it is the one a solve over every template returns.
        """
        from .linalg import solve_linear_combination

        solution = {}
        for (kexp, mu), comp in x.components().items():
            target = {w: c for (_, w), c in comp.terms.items()}
            basis = ((t, _placed(self._serre, t)) for t in self._ideal_basis(mu))
            coeffs, _ = solve_linear_combination(basis, target)
            if coeffs is None:
                return None
            accumulate(solution, (((kexp, label), c) for label, c in coeffs.items()))
        return solution

    # -- membership in generator spans --------------------------------------

    def generator_products(self, gens, kexp, weight):
        """Labels of the ordered generator products matching a multidegree.

        gens: [(name, NCPoly)] with each value multihomogeneous.  Returns the
        labels ("A*B*C", or "1" for the empty product) of every sequence of
        generators (with repetition, all orderings) whose K-exponents and
        word contents sum to the target, sorted as strings.  Nothing is
        multiplied: `label_product` expands a label.  With non-negative
        K-exponents the target bounds the search, as every generator used
        has a nonzero K-exponent or content.
        """
        # one degree tuple per generator: its K-exponents, then its content
        degrees = [(name, *poly.multidegree()) for name, poly in gens]
        data = [(name, gk + gw) for name, gk, gw in degrees if any(gk) or any(gw)]
        out = []
        # depth-first over (label, remaining degree) on an explicit stack: a
        # self-calling closure would be a reference cycle holding the
        # algebra until the next full collection
        stack = [("1", tuple(kexp) + tuple(weight))]
        while stack:
            label, rem = stack.pop()
            if not any(rem):
                out.append(label)
                continue
            for name, deg in data:
                if all(map(le, deg, rem)):
                    stack.append((
                        name if label == "1" else f"{label}*{name}",
                        tuple(map(sub, rem, deg)),
                    ))
        return sorted(out)

    def label_product(self, label, gen_map) -> NCPoly:
        """The labelled generator product, multiplied out left to right."""
        if label == "1":
            return self.one()
        names = label.split("*")
        prod = gen_map[names[0]]
        for name in names[1:]:
            prod = self.nc_mul(prod, gen_map[name])
        return prod

    def product_span(self, gens, kexp, mu):
        """The span of the generator products at (kexp, mu) modulo the
        ideal: a `SpanSolver` of their normal forms, each tagged by its
        label and added in sorted label order (`generator_products`), so a
        target's `solve` gives its coefficients over the labels and
        `nullrows` the relations among the products.  It is built afresh on
        every call and nothing is kept: a span depends on the generators'
        values, so a check that asks one multidegree again keeps its own.
        No product is multiplied out.
        """
        span = SpanSolver()
        gen_map, nfs = dict(gens), {}
        for label in self.generator_products(gens, kexp, mu):
            span.add(self._product_nf(label, gen_map, nfs), {label: RF_ONE})
        return span

    def _product_nf(self, label, gen_map, nfs):
        """Normal form of the labelled generator product, by basis word.

        The product p * g is never expanded: with nf(p) from the label prefix
        and the ideal two-sided, nf(p * g) is the sum of
        nf(p)[b] * q^s * nf(g)[w] * nf(b + w) over basis words b of nf(p)
        and w of nf(g), where q^s, s = -(k, mu), is the cost of moving g's
        K^k left past E_b (the same for every b, as p is multihomogeneous of
        content mu).  So it is one fold, from the states
        {w: q^s * nf(g)[w] * nf(p)}.  nfs memoizes labels for one span, so
        each generator is folded once per span (`nf_components`); the empty
        product "1" is the basis word ().
        """
        vec = nfs.get(label)
        if vec is not None:
            return vec
        prefix, _, name = label.rpartition("*")
        if label == "1":
            vec = {(): RF_ONE}
        elif not prefix:
            vec = next(iter(self.nf_components(gen_map[label]).values()), {})
        else:
            pvec = self._product_nf(prefix, gen_map, nfs)
            gvec = self._product_nf(name, gen_map, nfs)
            vec = {}
            if pvec and gvec:
                gk = next(iter(gen_map[name].terms))[0]
                mu = self.content_of(next(iter(pvec)))
                scale = RatFunc.q_power(-self.rs.inner(gk, mu))
                self.table(tuple(map(add, mu, self.content_of(next(iter(gvec))))))
                states = {}
                for w, cg in gvec.items():
                    cg = scale * cg
                    states[w] = {b: c * cg for b, c in pvec.items()}
                vec = self._fold(states, mu)
        nfs[label] = vec
        return vec

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
        serre = self._serre
        return NCPoly(self, accumulate({}, (
            ((kexp, u + w + v), c * cr)
            for (kexp, (u, ij, v)), c in coeffs.items()
            for w, cr in serre[ij][1].items()
        )))


@dataclass
class _NFTable:
    basis: list
    raise_map: dict


# the only classes a table cache file may name: {(module, name): class}
_CACHE_CLASSES = {(c.__module__, c.__qualname__): c for c in (_NFTable, RatFunc)}


def _placed(relations, label):
    """The word vector of the template u . R_ij . v labelled (u, ij, v)."""
    u, ij, v = label
    return {u + w + v: c for w, c in relations[ij][1].items()}


def _subcontents(content):
    return sorted(product(*(range(c + 1) for c in content)))


def _word_count(content):
    """The number of distinct words of a content: a multinomial coefficient."""
    count, length = 1, 0
    for c in content:
        length += c
        count *= comb(length, c)
    return count


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
