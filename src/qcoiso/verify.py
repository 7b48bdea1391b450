"""Certificate-producing verification of the candidate coideal subalgebras.

Two checks carry the substance.  The left-coideal check expands the coproduct
of each generator over a quotient basis on the right tensor leg and certifies
that every left coefficient lies in the span of generator products modulo the
q-Serre ideal.  The flatness check expresses each commutator of generators as
(degree-one part) + (coefficients vanishing at q = 1) * (generator products)
modulo the ideal, in two phases: a particular solution and nullspace over
Q(q), then constant parameters for the nullspace from one tagged solve over
the values at q = 1 (`_fit_q1_constraints`).  Both checks ask the span of the
generator products modulo the ideal at a multidegree
(`UqBorel.product_span`, which keeps nothing); each check builds it once per
multidegree and keeps it for that check only: the coideal check keeps the
spans and solves each nonzero component normal form of a left coefficient
against one, and the flatness check keeps only the relations a span leaves
and reads each commutator off them.

A certificate is checked against the algebra, not against the solve: the
products with a nonzero coefficient are multiplied out from the generators,
and the residual (target minus the combination) must lie in the q-Serre
ideal, witnessed by an explicit relation combination when small and by the
quotient normal form otherwise; the residual is folded only when no
combination is found.

Certificates are what each stage hands on.  Both checks return report
entries, plain dicts with the certificates rendered as they are made: one per
generator (name, pass, status, certificates, and a witness when one is found)
and one per pair (i, j, verdict, xprime, certificate or note).  The report
reads those entries as they are, the semiclassical check reads the q = 1
values of each pair from its rendered certificate, and `solve_identity`
solves over one template list and returns its certificate.

Entries above the table degree cap are "unverified": a generator whose degree
exceeds it, and a pair whose commutator is nonzero and of degree above it,
which is decided from the generators' leading terms without forming the
commutator whenever those terms prove it nonzero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .classical import (
    FractionSpan,
    RealizationError,
    ad_bivector,
    build_r_matrix,
    build_realization,
    check_coisotropic,
    check_master_equation,
    coisotropic_generators,
)
from .linalg import (
    SpanSolver,
    solve_linear_combination,
    vec_add_scaled,
)
from .qfield import RF_ONE, RatFunc, parse_ratfunc, products_memoized
from .recipes import GeneratorRecipe, RecipeError, builtin_recipe, classical_limit_expr
from .rootsys import Root, RootSystem, is_admissible
from .uqalg import DegreeOverflowError, NCPoly, UqAlgebraError, UqBorel, render_monomial

# explicit u.R.v certificates are produced below this component degree
IDEAL_CERTIFICATE_DEGREE = 6


class VerificationError(ValueError):
    pass


def _certificate(kind, coefficients, residual_check, detail):
    """A rendered certificate; kind is coideal-term, flatness-pair or
    identity-solution, and coefficients map labels to RatFunc values."""
    return {
        "kind": kind,
        "coefficients": {str(k): v.render() for k, v in sorted(coefficients.items())},
        "residual_check": residual_check,
        **dict(sorted(detail.items())),
    }


def _ideal_part_certificate(alg, residual: NCPoly):
    """(ok, detail) for an ideal residual: an explicit combination when
    small, solved first; the normal form only when there is none."""
    if not residual:
        return True, {"ideal_part": "zero"}
    small = residual.degree() <= IDEAL_CERTIFICATE_DEGREE
    cert = alg.ideal_membership(residual) if small else None
    if cert is not None:
        ok = alg.expand_ideal_certificate(cert) == residual
        return ok, {"ideal_part": "explicit", "ideal_terms": len(cert)}
    # no witness: the normal form tells a residual outside the ideal apart
    if alg.nf_components(residual):
        return False, {"ideal_part": "not in the ideal"}
    if small:
        return False, {"ideal_part": "normal form vanished but no certificate"}
    return True, {"ideal_part": "normal-form verified"}


# ---------------------------------------------------------------------------
# Left-coideal check.
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    case: dict
    admissible: bool | None = None
    classical: dict | None = None
    coideal: list | None = None  # per-generator entries
    flatness: list | None = None  # per-pair entries
    degrees_used: int = 0
    timings: dict = field(default_factory=dict)
    stage_error: str = ""

    @property
    def verdict(self) -> str:
        if self.stage_error:
            return "fail"
        if self.admissible is False:
            return "fail"
        if self.classical is not None and not self.classical.get("coisotropic"):
            return "fail"
        outcomes = []
        if self.coideal is not None:
            outcomes.extend(g["status"] for g in self.coideal)
        if self.flatness is not None:
            outcomes.extend(p["verdict"] for p in self.flatness)
        if any(v == "fail" for v in outcomes):
            return "fail"
        if any(v in ("inconclusive", "unverified") for v in outcomes):
            return "inconclusive"
        return "pass"

    def to_json(self, include_timings=True):
        out = {
            "case": self.case,
            "admissible": self.admissible,
            "classical": self.classical,
            "coideal": {"per_generator": list(self.coideal or [])},
            "flatness": {"per_pair": list(self.flatness or [])},
            "degrees_used": self.degrees_used,
            "verdict": self.verdict,
        }
        if self.stage_error:
            out["stage_error"] = self.stage_error
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in sorted(self.timings.items())}
        return out


def check_left_coideal(recipe: GeneratorRecipe, alg: UqBorel) -> list:
    """Per-generator report entries for Delta(g) in B (x) U_q."""
    gens = [("K", alg.k_monomial(recipe.k_monomial)), *recipe.evaluate(alg)]
    spans = {}  # the product spans of these generators, for this check only
    return [_coideal_entry(alg, name, g, gens, spans) for name, g in gens]


def _coideal_entry(alg, name, g, gens, spans):
    """{name, pass, status (pass | fail | unverified), certificates, witness
    when set} for one generator."""
    if g.degree() > alg.max_degree:
        return _generator_entry(
            name,
            "unverified",
            [],
            f"generator degree {g.degree()} exceeds the configured degree "
            f"cap {alg.max_degree}",
        )
    # group the coproduct by right term, then expand each right leg over
    # the quotient basis, bucket by (kexp, word)
    by_right = {}
    for (left, right), c in alg.coproduct(g).items():
        by_right.setdefault(right, {})[left] = c
    buckets = {}
    for (rk, rw), lefts in by_right.items():
        for bw, c2 in alg.nf_word(rw).items():
            vec_add_scaled(buckets.setdefault((rk, bw), {}), lefts, c2)
    certs = []
    for (rk, bw) in sorted(buckets, key=lambda t: (t[0], len(t[1]), t[1])):
        b_alpha = NCPoly(alg, buckets[(rk, bw)])
        if not b_alpha:
            continue
        coeffs = _span_coefficients(alg, b_alpha, gens, spans)
        right = render_monomial(rk, bw)
        if coeffs is None:
            witness = (
                f"left coefficient of {right} is outside the generator span: "
                f"{b_alpha.render()}"
            )
            return _generator_entry(name, "fail", certs, witness)
        ok, detail = _certify(alg, b_alpha, coeffs, gens)
        detail["right_leg"] = right
        certs.append(_certificate("coideal-term", coeffs, ok, detail))
    status = "pass" if all(c["residual_check"] for c in certs) else "fail"
    return _generator_entry(name, status, certs)


def _span_coefficients(alg, x, gens, spans):
    """Coefficients over the product labels expressing x modulo the ideal,
    the normal form of each component solved against the span of its
    multidegree in spans, the check's own, or None at the first component
    outside it."""
    coeffs = {}
    for key, vec in alg.nf_components(x).items():
        if key not in spans:
            spans[key] = alg.product_span(gens, *key)
        sol = spans[key].solve(vec)
        if sol is None:
            return None
        coeffs.update(sol)
    return coeffs


def _generator_entry(name, status, certificates, witness=""):
    entry = {
        "name": name,
        "pass": status == "pass",
        "status": status,
        "certificates": certificates,
    }
    if witness:
        entry["witness"] = witness
    return entry


def _certify(alg, target, coeffs, gens, formed=None):
    """(ok, detail) for target = sum of coeffs[label] * (labelled product)
    modulo the ideal.

    The products with a nonzero coefficient are multiplied out from the
    generator polynomials, independently of the normal forms the solve used,
    and the residual target - combination must lie in the ideal.  formed
    maps labels to products the caller has already multiplied out with
    `nc_mul`; those are not multiplied again.
    """
    gen_map, formed = dict(gens), formed or {}
    polys = {
        label: formed[label] if label in formed else alg.label_product(label, gen_map)
        for label in coeffs
    }
    return _ideal_part_certificate(alg, target - alg.combination(coeffs, polys))


# ---------------------------------------------------------------------------
# Flatness check.
# ---------------------------------------------------------------------------

def _commutator_provably_nonzero(a: NCPoly, b: NCPoly) -> bool:
    """True when the leading terms of a and b prove a*b - b*a nonzero.

    Applies only to multihomogeneous a and b.  Under the key
    (len(word), word, kexp) the leading term of a product is the product of
    the leading terms, reached by exactly one pair of terms with a nonzero
    coefficient; its word is the largest word, as all words of a
    multihomogeneous element have one length.  So when the leading words do
    not commute, the larger of the leading terms of a*b and b*a cannot cancel.
    False means undecided, as for a mixed element, whose multidegree() raises.
    """
    try:
        a.multidegree(), b.multidegree()
    except UqAlgebraError:
        return False
    wa, wb = (max(w for _, w in x.terms) for x in (a, b))
    return wa + wb != wb + wa


def check_flatness(recipe: GeneratorRecipe, alg: UqBorel) -> list:
    """Per-pair report entries; see the module docstring for the scheme."""
    egens = recipe.evaluate(alg)
    # multidegree -> the relations among these generators' products, for
    # this check only; the spans' rows are not read here, so none is kept
    relations = {}
    out = [_flatness_entry(alg, a, b, egens, relations) for a, b in combinations(egens, 2)]
    # the K-monomial against each generator, via the closed crossing form
    kmono = alg.k_monomial(recipe.k_monomial)
    for name, g in egens:
        entry = {"i": "K", "j": name}
        l = alg.rs.inner(recipe.k_monomial, g.multidegree()[1])
        kg = alg.nc_mul(kmono, g)
        coeff = RF_ONE - RatFunc.q_power(-l)
        ok = kg - alg.nc_mul(g, kmono) == coeff * kg
        entry["verdict"] = "pass" if ok else "fail"
        entry["xprime"] = "0"
        entry["certificate"] = _certificate(
            "flatness-pair",
            {f"K*{name}": coeff},
            ok,
            {"closed_form": f"(1 - q^{-l}) K {name}", "crossing_exponent": l},
        )
        out.append(entry)
    return out


def _flatness_entry(alg, gen_i, gen_j, egens, relations):
    """The report entry of one pair of E-side generators."""
    (name_i, gi), (name_j, gj) = gen_i, gen_j
    entry = {"i": name_i, "j": name_j}
    need = gi.degree() + gj.degree()
    if need > alg.max_degree and _commutator_provably_nonzero(gi, gj):
        return _over_cap(alg, entry, need)
    ij, ji = f"{name_i}*{name_j}", f"{name_j}*{name_i}"
    formed = {ij: alg.nc_mul(gi, gj), ji: alg.nc_mul(gj, gi)}
    c_poly = formed[ij] - formed[ji]
    if not c_poly:
        cert = _certificate("flatness-pair", {}, True, {"commutator": "zero"})
        return {**entry, "verdict": "pass", "xprime": "0", "certificate": cert}
    if need > alg.max_degree:
        return _over_cap(alg, entry, need)
    return {**entry, **_solve_flatness_pair(alg, c_poly, formed, egens, relations)}


def _over_cap(alg, entry, need):
    note = f"pair degree {need} exceeds the configured degree cap {alg.max_degree}"
    return {**entry, "verdict": "unverified", "note": note}


def _solve_flatness_pair(alg, c_poly, formed, egens, relations):
    """Verdict, xprime and certificate of one nonzero commutator within the
    cap.

    The commutator is the difference of the two products in formed,
    {"Gi*Gj": Gi Gj, "Gj*Gi": Gj Gi}, both among the labels of its
    multidegree, which the empty product "1" never has.  So its particular
    solution and nullspace are read off the relations of the product span
    there, and always exist: the relation a dependent label leaves holds it
    with coefficient 1 as its largest key (the labels go in sorted), and its
    other entries, negated, express it over the independent labels, uniquely,
    as a solve of the commutator would.  The certificate's residual ties them
    to the algebra, without multiplying those two products again."""
    key = c_poly.multidegree()
    if key not in relations:
        relations[key] = alg.product_span(egens, *key).nullrows
    nullspace = relations[key]
    own = {max(row): row for row in nullspace}
    left, right = (
        {k: -c for k, c in own[label].items() if k != label} if label in own
        else {label: RF_ONE}
        for label in formed
    )
    particular = vec_add_scaled(left, right, -RF_ONE)
    # the single generators are the labels without a product sign
    labels = set(particular).union(*nullspace)
    degree_one = {label for label in labels if "*" not in label}
    solution = _fit_q1_constraints(particular, nullspace, degree_one)
    if solution is None:
        return {
            "verdict": "inconclusive",
            "note": (
                "solution space nonempty but q=1 constraints unsatisfied "
                "with constant parameters"
            ),
        }
    coeffs = solution
    xprime_parts = []
    for label in sorted(coeffs):
        if label in degree_one:
            v1 = coeffs[label].eval_at_one()
            if v1:
                xprime_parts.append(f"{v1}*{label}")
    ok, detail = _certify(alg, c_poly, coeffs, egens, formed)
    return {
        "verdict": "pass" if ok else "fail",
        "xprime": " + ".join(xprime_parts) if xprime_parts else "0",
        "certificate": _certificate("flatness-pair", coeffs, ok, detail),
    }


def _vec_order_at_one(vec):
    return min(c.order_at_one() for c in vec.values())


def _vec_shift(vec, k):
    return {label: c.shift_at_one(k) for label, c in vec.items()}


def _vec_value_at_one(vec):
    """Values at q = 1 of a vector regular there, zeros dropped."""
    return {label: x for label, c in vec.items() if (x := c.eval_at_one())}


def _fit_q1_constraints(particular, nullspace, degree_one):
    """Pick constants for the nullspace so product coefficients die at q=1.

    Coefficients attached to products of two or more generators must vanish
    at q = 1 and every coefficient must be regular there.  The nullspace is
    first normalized against (q-1): each vector is scaled to be regular with
    a nonzero value at 1, and the family is saturated so that the values at
    1 are linearly independent; the reachable value set with constant
    parameters is then exactly the affine span of those values, which one
    tagged solve searches.
    """
    basis = []
    for vec in nullspace:
        k = _vec_order_at_one(vec)
        basis.append(_vec_shift(vec, -k))
    # saturate: replace rational dependencies at q=1 by their (q-1) quotients
    for _ in range(200):
        values = [_vec_value_at_one(vec) for vec in basis]
        dep = _rational_dependency(values)
        if dep is None:
            break
        combo = {}
        for idx in sorted(dep):
            vec_add_scaled(combo, basis[idx], RatFunc.from_fraction(dep[idx]))
        idx = min(dep)
        if not combo:
            basis.pop(idx)
            continue
        k = _vec_order_at_one(combo)
        basis[idx] = _vec_shift(combo, -k)
    else:
        return None
    # clear poles from the particular using the saturated directions, whose
    # values at 1 are independent, so each expression below is unique
    span = SpanSolver()
    for idx, value in enumerate(values):
        span.add(value, {idx: Fraction(1)})
    part = dict(particular)
    for _ in range(200):
        if not part:
            break
        k = _vec_order_at_one(part)
        if k >= 0:
            break
        coeffs = span.solve(_vec_value_at_one(_vec_shift(part, -k)))
        if coeffs is None:
            return None
        for idx in sorted(coeffs):
            c = RatFunc.from_fraction(-coeffs[idx]).shift_at_one(k)
            vec_add_scaled(part, basis[idx], c)
    else:
        return None
    # constants cancelling the values at 1 on the product labels, in index
    # order: a direction dependent there on earlier ones gets 0
    span = SpanSolver()
    for idx, value in enumerate(values):
        span.add({k: x for k, x in value.items() if k not in degree_one}, {idx: Fraction(1)})
    ts = span.solve({k: -x for k, x in _vec_value_at_one(part).items() if k not in degree_one})
    if ts is None:
        return None
    out = dict(part)
    for idx in sorted(ts):
        vec_add_scaled(out, basis[idx], RatFunc.from_fraction(ts[idx]))
    return out


def _rational_dependency(values):
    """{index: coefficient} of a nontrivial rational dependency among the
    value vectors, or None when they are independent.  The dependency is the
    tag of the first vector in the span of the ones before it."""
    span = SpanSolver()
    for idx, value in enumerate(values):
        if not span.add(value, {idx: Fraction(1)}):
            return span.nullrows[-1]
    return None


def classical_limits(recipe: GeneratorRecipe, cb) -> dict:
    """{generator name: classical limit, in recipe order, then "K": the
    semiclassical element of the K-monomial}."""
    limits = {
        name: classical_limit_expr(expr, cb, recipe.auxiliaries)
        for name, _, expr in recipe.generators
    }
    k_element = {}
    for i, c in enumerate(recipe.k_monomial):
        if c:
            vec_add_scaled(k_element, cb.h(i), Fraction(c * cb.rs.symmetrizers[i]))
    limits["K"] = k_element
    return limits


def generated_dim(cb, vectors, bound: int) -> int:
    """The dimension of the Lie subalgebra the vectors generate, counted up
    to bound: each new basis vector is bracketed with every earlier one."""
    span, basis = FractionSpan(), []
    for v in vectors:
        if span.add(v):
            basis.append(v)
    k = 0
    while k < len(basis) < bound:
        x = basis[k]
        for y in basis[:k]:
            br = cb.bracket(x, y)
            if br and span.add(br):
                basis.append(br)
        k += 1
    return len(basis)


def check_semiclassical(limits: dict, flatness: list, cb) -> bool:
    """The rendered flatness certificates specialize at q=1 to the classical
    brackets of the limits (see `classical_limits`)."""
    for entry in flatness:
        if entry["verdict"] != "pass":
            return False
        gi, gj = entry["i"], entry["j"]
        cert = entry["certificate"]
        bracket = cb.bracket(limits[gi], limits[gj])
        if gi == "K":
            # [K-element, g] = l * g with l the crossing exponent
            l = cert["crossing_exponent"]
            expected = {k: l * v for k, v in limits[gj].items() if l}
        else:
            expected = {}
            for label, text in cert["coefficients"].items():
                if "*" not in label:
                    vec_add_scaled(expected, limits[label], parse_ratfunc(text).eval_at_one())
        if bracket != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Identity solving.
# ---------------------------------------------------------------------------

def solve_identity(target: NCPoly, templates):
    """Exact solve of target = sum c_i template_i in the free word model.

    templates: [(label, NCPoly)], every template the solve may use; an
    identity that holds modulo the ambient relation span lists its u.R.v
    elements among them (`builtin_identity`'s meta["ambient"]).  Returns the
    rendered certificate of a particular solution, with its "nullspace_dim",
    or None.
    """
    vec_templates = [(label, dict(poly.terms)) for label, poly in templates]
    coeffs, nullspace = solve_linear_combination(vec_templates, dict(target.terms))
    if coeffs is None:
        return None
    return _certificate(
        "identity-solution",
        coeffs,
        target.alg.combination(coeffs, dict(templates)) == target,
        {"nullspace_dim": len(nullspace)},
    )


def _named_ideal_templates(alg, mu):
    """alg.ideal_templates(mu), each label (u, (i, j), v) named "u.Rij.v"."""
    return [
        (f"{_word_str(u)}.R{i + 1}{j + 1}.{_word_str(v)}", poly)
        for (u, (i, j), v), poly in alg.ideal_templates(mu)
    ]


def _word_str(word):
    return "".join(f"E{l + 1}" for l in word) if word else "1"


# ---------------------------------------------------------------------------
# End-to-end pipeline.
# ---------------------------------------------------------------------------

def run_full_verification(
    rs: RootSystem,
    beta: Root,
    recipe: GeneratorRecipe | None = None,
    degree_cap: int = 14,
    cache_path=None,
) -> VerificationReport:
    report = VerificationReport(
        case={"type": rs.type.series, "rank": rs.rank, "beta": rs.render_root(beta)}
    )
    t0 = time.monotonic()
    report.admissible = is_admissible(rs, beta)
    report.timings["admissibility"] = time.monotonic() - t0
    if not report.admissible:
        report.stage_error = "beta fails the root-string condition"
        return report

    t0 = time.monotonic()
    try:
        cb = build_realization(rs)
    except RealizationError as exc:
        report.stage_error = f"classical realization: {exc}"
        return report
    pi = build_r_matrix(cb)
    delta_beta = ad_bivector(cb, cb.e(beta), pi)
    gens = coisotropic_generators(cb, delta_beta)
    checks = check_coisotropic(cb, pi, gens)
    master = check_master_equation(cb, cb.e(beta), pi)
    report.classical = {
        "coisotropic": all(checks.values()) and master,
        "dim": len(gens),
    }
    report.timings["classical"] = time.monotonic() - t0
    if not report.classical["coisotropic"]:
        return report

    t0 = time.monotonic()
    if recipe is None:
        try:
            recipe = builtin_recipe(rs, beta)
        except RecipeError as exc:
            report.stage_error = f"recipe: {exc}"
            return report
    # classical-limit consistency, generators first, in recipe order
    span = FractionSpan()
    for g in gens:
        span.add(g)
    limits = classical_limits(recipe, cb)
    for name, lim in limits.items():
        if name != "K" and (not lim or not span.contains(lim)):
            report.stage_error = f"classical limit of {name} is outside the span"
            return report
    if not span.contains(limits["K"]):
        report.stage_error = "K-monomial semiclassical element is outside the span"
        return report
    # and they must generate all of it, not a proper subalgebra
    generated = generated_dim(cb, limits.values(), len(gens))
    if generated < len(gens):
        report.stage_error = f"classical limits generate {generated} of {len(gens)} dimensions"
        return report
    report.timings["classical_limit"] = time.monotonic() - t0

    # coideal components have degree at most d and commutators at most 2d
    d = recipe.max_degree()
    table_cap = min(max(d + 2, 2 * d), degree_cap)
    alg = UqBorel(rs, max_degree=table_cap)
    if cache_path:
        alg.load_tables(cache_path)
    report.degrees_used = table_cap

    # the UqBorel stages multiply the same few hundred pairs of Q(q) values
    # over and over; the memo lives for these stages only
    with products_memoized():
        t0 = time.monotonic()
        try:
            report.coideal = check_left_coideal(recipe, alg)
        except DegreeOverflowError as exc:
            report.stage_error = f"coideal: {exc}"
            return report
        report.timings["coideal"] = time.monotonic() - t0

        t0 = time.monotonic()
        report.flatness = check_flatness(recipe, alg)
        report.timings["flatness"] = time.monotonic() - t0

        t0 = time.monotonic()
        if all(p["verdict"] == "pass" for p in report.flatness):
            if not check_semiclassical(limits, report.flatness, cb):
                report.stage_error = "semiclassical specialization mismatch"
        report.timings["semiclassical"] = time.monotonic() - t0
    if cache_path:
        alg.save_tables(cache_path)
    return report


# ---------------------------------------------------------------------------
# Built-in identity problems for the solve command.
# ---------------------------------------------------------------------------

def builtin_identity(name: str):
    """(target, templates, meta) for the named golden identity.  The solve
    runs over templates + meta.get("ambient", []); only templates are named
    in its output."""
    from .rootsys import CartanType, build_root_system

    if name in ("ijkj", "eiej-ekej"):
        alg = UqBorel(build_root_system(CartanType("A", 3)))
        e1, e2, e3 = (alg.gen(i) for i in range(3))
        br = alg.q_bracket
        rels = alg.serre_relations()
        r_i = rels[(1, 0)]  # the double-middle relation against the first letter
        r_k = rels[(1, 2)]
        if name == "ijkj":
            # oriented so the classical coefficient table is exact: the
            # reversed orientation flips all four signs
            target = br(e2, br(br(e1, e2, 1), e3, 1), 0)
            description = "commutator of the middle generator with the iterated bracket"
        else:
            target = br(br(e1, e2, 1), br(e3, e2, 1), 0)
            description = "commutator of two single brackets sharing the middle generator"
        templates = [
            ("a", r_i * e3),
            ("b", e3 * r_i),
            ("c", e1 * r_k),
            ("d", r_k * e1),
        ]
        # padding by the commuting-pair relation [E1, E3], used implicitly by
        # the term-by-term identification
        mu = target.multidegree()[1]
        padding = [poly for (_, ij, _), poly in alg.ideal_templates(mu) if ij == (0, 2)]
        templates.extend((f"comm{k}", poly) for k, poly in enumerate(padding, 1))
        return target, templates, {"description": description}
    if name == "so-odd-5term":
        # A, B are the short-node and adjacent generators of the odd
        # orthogonal rank-3 algebra; C is the composite [B, E1]_{q^2}.  The
        # sixteen named templates are completed by the ambient relation span,
        # which the term-by-term identification uses implicitly.
        alg = UqBorel(build_root_system(CartanType("B", 3)), max_degree=8)
        br = alg.q_bracket
        a, b = alg.gen(2), alg.gen(1)
        c = br(alg.gen(1), alg.gen(0), 2)
        rb = br(a, br(a, br(a, b, 2), 0), -2)
        rc = br(a, br(a, br(a, c, 2), 0), -2)
        rbac = br(b, br(a, c, 2), 0)
        target = br(br(a, br(a, b, 2), 0), br(a, br(a, c, 2), 0), -2)
        templates = [
            ("a", rb * a * c),
            ("b", rb * c * a),
            ("c", a * rb * c),
            ("d", b * rc * a),
            ("e", b * a * rc),
            ("f", a * b * rc),
            ("a'", rc * a * b),
            ("b'", rc * b * a),
            ("c'", a * rc * b),
            ("d'", c * rb * a),
            ("e'", c * a * rb),
            ("f'", a * c * rb),
            ("g", rbac * a * a * a),
            ("h", a * rbac * a * a),
            ("i", a * a * rbac * a),
            ("j", a * a * a * rbac),
        ]
        return target, templates, {
            "description": (
                "sixteen-template identity over three letters with "
                "double-bracket relations, modulo the ambient relation span"
            ),
            "ambient": _named_ideal_templates(alg, target.multidegree()[1]),
        }
    if name == "g2-e2t":
        from .recipes import builtin_recipe as _br
        from .rootsys import parse_root

        rs = build_root_system(CartanType("G", 2))
        alg = UqBorel(rs, max_degree=8)
        recipe = _br(rs, parse_root(rs, "3a1+2a2"))
        gens = recipe.evaluate(alg)
        by_name = dict(gens)
        target = alg.q_bracket(by_name["E2"], by_name["T"], 0)
        mu = target.multidegree()[1]
        # the products of two or more generators
        templates = [
            (label, alg.label_product(label, by_name))
            for label in alg.generator_products(gens, (0, 0), mu)
            if "*" in label
        ]
        templates.extend(_named_ideal_templates(alg, mu))
        return target, templates, {
            "description": "commutator of the degree-one and degree-five generators in the exceptional rank-two case",
        }
    raise VerificationError(
        f"unknown identity {name!r}; known: ijkj, eiej-ekej, so-odd-5term, g2-e2t"
    )
