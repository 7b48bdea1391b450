"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are pinned to expectations that exact computation refutes;
they are kept faithful to the pinned tables and fail honestly, with the
mathematical reason in the assertion message:

  * criterion 1, F4 row: the no-three-consecutive string filter provably
    admits the 12 long F4 roots (root-length arithmetic; cross-checked on an
    independent Euclidean model), not the pinned empty set;
  * criterion 3, converse direction: the master equation [X,[X,pi]] = 0 holds
    for a few string-inadmissible roots because the Killing-normalized cross
    terms cancel (verified by hand for the rank-2 symplectic case), so the
    filter is sufficient but not equivalent.

Everything else is green and exact.
"""

import time

import pytest

from qcoiso.classical import (
    ad_bivector,
    build_r_matrix,
    build_realization,
    check_coisotropic,
    check_master_equation,
    coisotropic_generators,
)
from qcoiso.qfield import parse_ratfunc as rf
from qcoiso.recipes import Gen, QBr, GeneratorRecipe, builtin_recipe, load_e6_recipes
from qcoiso.rootsys import (
    CartanType,
    admissible_positive_roots,
    build_root_system,
    is_admissible,
    parse_root,
)
from qcoiso.uqalg import UqBorel
from qcoiso.verify import builtin_identity, run_full_verification, solve_identity

VERIFICATION_CASES = [
    ("A", 2, "L1-L3"),
    ("A", 3, "L1-L4"),
    ("C", 2, "2L1"),
    ("C", 3, "2L1"),
    ("D", 4, "L1+L2"),
    ("D", 4, "L1+L4"),
    ("B", 2, "L1+L2"),
    ("B", 3, "L1+L2"),
    ("G", 2, "3a1+a2"),
    ("G", 2, "3a1+2a2"),
]

_RS = {}
_REPORTS = {}


def rs_of(series, rank):
    key = (series, rank)
    if key not in _RS:
        _RS[key] = build_root_system(CartanType(series, rank))
    return _RS[key]


def report_of(series, rank, lit):
    key = (series, rank, lit)
    if key not in _REPORTS:
        rs = rs_of(series, rank)
        t0 = time.monotonic()
        report = run_full_verification(rs, parse_root(rs, lit))
        _REPORTS[key] = (report, time.monotonic() - t0)
    return _REPORTS[key]


def _line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))


def test_criterion_1_admissibility_tables():
    t0 = time.monotonic()
    for n in range(2, 7):
        rs = rs_of("A", n)
        assert admissible_positive_roots(rs) == rs.positive_roots
    for n in range(3, 7):
        rs = rs_of("D", n)
        assert admissible_positive_roots(rs) == rs.positive_roots
    for n in range(2, 7):
        rs = rs_of("C", n)
        adm = admissible_positive_roots(rs)
        expected = {parse_root(rs, f"2L{i}").decomp for i in range(1, n + 1)}
        assert {r.decomp for r in adm} == expected
    for n in range(2, 7):
        rs = rs_of("B", n)
        adm = admissible_positive_roots(rs)
        expected = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expected.add(parse_root(rs, f"L{i}-L{j}").decomp)
                expected.add(parse_root(rs, f"L{i}+L{j}").decomp)
        assert {r.decomp for r in adm} == expected
    rs = rs_of("G", 2)
    assert {r.decomp for r in admissible_positive_roots(rs)} == {
        (0, 1),
        (3, 1),
        (3, 2),
    }
    elapsed = time.monotonic() - t0
    _line("criterion-1 (A/D/C/B/G2 admissibility tables)", True, f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_1_f4_table():
    adm = admissible_positive_roots(rs_of("F", 4))
    ok = len(adm) == 0
    _line(
        "criterion-1 (F4 empty)",
        ok,
        f"string filter admits {len(adm)} long roots; pinned table expects none",
    )
    assert ok, (
        "the no-three-consecutive string filter provably admits the 12 long "
        "F4 roots (for long beta, |a+b|^2 + |a-b|^2 = 2|a|^2 + 2|b|^2 is "
        "never a sum of two root lengths, and a+2b is never a root), so the "
        "pinned empty table is unattainable"
    )


def test_criterion_2_coefficient_goldens():
    t0 = time.monotonic()
    target, templates, _ = builtin_identity("ijkj")
    sol = solve_identity(target, templates)
    assert sol is not None and sol["residual_check"]
    assert sol["nullspace_dim"] == 0
    golden = {
        "a": rf("-1/(q+q^-1)"),
        "b": rf("q^2/(q+q^-1)"),
        "c": rf("1/(q+q^-1)"),
        "d": rf("-q^2/(q+q^-1)"),
    }
    for k, v in golden.items():
        assert sol["coefficients"].get(k) == v.render()
    t_ijkj = time.monotonic() - t0

    t0 = time.monotonic()
    target, templates, _ = builtin_identity("eiej-ekej")
    sol = solve_identity(target, templates)
    assert sol is not None and sol["nullspace_dim"] == 0
    golden = {
        "a": rf("-q^2/(q+q^-1)"),
        "b": rf("1/(q+q^-1)"),
        "c": rf("-1/(q+q^-1)"),
        "d": rf("q^2/(q+q^-1)"),
    }
    for k, v in golden.items():
        assert sol["coefficients"].get(k) == v.render()
    t_second = time.monotonic() - t0

    t0 = time.monotonic()
    target, templates, meta = builtin_identity("so-odd-5term")
    sol = solve_identity(target, templates + meta["ambient"])
    assert sol is not None and sol["residual_check"]
    den = "(q^4+q^2+1)"
    golden = {
        "a": rf("0"),
        "b": rf(f"-1/{den}"),
        "c": rf(f"q^2/{den}"),
        "d": rf(f"(q^4+q^2)/{den}"),
        "e": rf("q^2"),
        "f": rf(f"-(q^6+2*q^4+q^2+1)/{den}"),
        "a'": rf("1"),
        "b'": rf(f"-(q^6+q^4+2*q^2+1)/{den}"),
        "c'": rf(f"(q^4+q^2)/{den}"),
        "d'": rf(f"q^4/{den}"),
        "e'": rf("0"),
        "f'": rf(f"-q^6/{den}"),
        "g": rf("-1"),
        "h": rf("(1+q^2+q^4)/q^2"),
        "i": rf("-(1+q^2+q^4)/q^2"),
        "j": rf("1"),
    }
    # the sixteen-coefficient table lies in the solution set: the residual
    # against the named templates is absorbed exactly by the relation span
    from qcoiso.linalg import solve_linear_combination

    alg = target.alg
    rest = target
    t_map = dict(templates)
    for label, c in golden.items():
        if c:
            rest = rest - c * t_map[label]
    pads = [
        (str(label), dict(poly.terms))
        for label, poly in alg.ideal_templates(target.multidegree()[1])
    ]
    coeffs, _ = solve_linear_combination(pads, dict(rest.terms))
    assert coeffs is not None
    t_five = time.monotonic() - t0
    _line(
        "criterion-2 (coefficient goldens)",
        True,
        f"ijkj {t_ijkj:.2f}s, partner {t_second:.2f}s, 16-table {t_five:.2f}s",
    )
    assert max(t_ijkj, t_second, t_five) < 30


def test_criterion_3_classical_coisotropy():
    t0 = time.monotonic()
    systems = [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 4), ("B", 2), ("B", 3), ("G", 2)]
    for series, rank in systems:
        rs = rs_of(series, rank)
        cb = build_realization(rs)
        pi = build_r_matrix(cb)
        for beta in admissible_positive_roots(rs):
            gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
            report = check_coisotropic(cb, pi, gens)
            assert all(report.values()), (series, rank, rs.render_root(beta))
            assert check_master_equation(cb, cb.e(beta), pi)
    elapsed = time.monotonic() - t0
    _line("criterion-3 (coisotropy of every admissible root)", True, f"{elapsed:.2f}s")
    assert elapsed < 120


def test_criterion_3_master_equation_agreement():
    t0 = time.monotonic()
    systems = [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 4), ("B", 2), ("B", 3), ("G", 2)]
    disagreements = []
    for series, rank in systems:
        rs = rs_of(series, rank)
        cb = build_realization(rs)
        pi = build_r_matrix(cb)
        for beta in rs.positive_roots:
            adm = is_admissible(rs, beta)
            meq = check_master_equation(cb, cb.e(beta), pi)
            if adm != meq:
                disagreements.append(f"{series}{rank}:{rs.render_root(beta)}")
    elapsed = time.monotonic() - t0
    ok = not disagreements
    _line(
        "criterion-3 (master equation agrees with the string filter)",
        ok,
        f"{elapsed:.2f}s; surplus roots: {', '.join(disagreements) or 'none'}",
    )
    assert elapsed < 120
    assert ok, (
        "the master equation also holds for "
        + ", ".join(disagreements)
        + ": with the Killing-normalized r-matrix the second-order cross "
        "terms cancel for these string-inadmissible roots (each still spans "
        "a genuine coisotropic subalgebra), so exact agreement is unattainable"
    )


def test_criterion_4_coideal_verification():
    worst = 0.0
    for series, rank, lit in VERIFICATION_CASES:
        report, elapsed = report_of(series, rank, lit)
        worst = max(worst, elapsed)
        assert report.coideal is not None, (series, rank, lit, report.stage_error)
        for outcome in report.coideal:
            assert outcome["pass"], (series, rank, lit, outcome["name"], outcome.get("witness"))
    # deliberate mutation: plain bracket in the special-linear recipe fails
    rs = rs_of("A", 3)
    beta = parse_root(rs, "L1-L4")
    good = builtin_recipe(rs, beta)
    mutated = []
    for name, group, expr in good.generators:
        if name == "X2":
            expr = QBr(Gen(0), Gen(1), 0)
        elif name == "X3":
            expr = QBr(QBr(Gen(0), Gen(1), 0), Gen(2), 1)
        mutated.append((name, group, expr))
    bad = GeneratorRecipe(
        cartan_type=good.cartan_type,
        beta=good.beta,
        k_monomial=good.k_monomial,
        generators=mutated,
    )
    from qcoiso.verify import check_left_coideal

    outcomes = check_left_coideal(bad, UqBorel(rs, max_degree=8))
    failing = {o["name"]: o for o in outcomes if not o["pass"]}
    assert "X2" in failing
    assert "E2" in failing["X2"]["witness"] and "K2 E1" in failing["X2"]["witness"]
    _line("criterion-4 (left-coideal verification)", True, f"worst case {worst:.2f}s")
    assert worst < 300


def test_criterion_5_flatness_verification():
    worst = 0.0
    for series, rank, lit in VERIFICATION_CASES:
        report, elapsed = report_of(series, rank, lit)
        worst = max(worst, elapsed)
        assert report.flatness is not None, (series, rank, lit, report.stage_error)
        for entry in report.flatness:
            assert entry["verdict"] == "pass", (series, rank, lit, entry)
        # semiclassical consistency ran inside the pipeline
        assert not report.stage_error, (series, rank, lit, report.stage_error)
        assert report.verdict == "pass"
    _line("criterion-5 (flatness verification)", True, f"worst case {worst:.2f}s")
    assert worst < 600


def test_criterion_6_property_suites():
    import test_properties as props

    t0 = time.monotonic()
    props.test_field_axioms_1000_triples()
    props.test_nc_mul_associativity_200_triples()
    props.test_coproduct_multiplicativity_and_coassociativity_100_samples()
    props.test_quotient_dimensions_vs_pbw_counts_degree_5()
    props.test_qcommute_transfer_50_instances()
    props.test_certificates_reexpand_on_emitted_runs()
    _line("criterion-6 (property suites)", True, f"{time.monotonic() - t0:.2f}s")


def test_criterion_7_e6_smoke():
    t0 = time.monotonic()
    rs = rs_of("E", 6)
    table = load_e6_recipes(rs)
    assert len(table) == 36
    alg = UqBorel(rs, max_degree=16)
    from qcoiso.recipes import classical_limit_expr, eval_bracket_expr

    for decomp, recipe in sorted(table.items()):
        for name, _, expr in recipe.generators:
            assert eval_bracket_expr(expr, alg, recipe.auxiliaries)
    # classical-limit consistency for the shortest rows
    cb = build_realization(rs)
    pi = build_r_matrix(cb)
    from qcoiso.classical import FractionSpan
    from qcoiso.linalg import vec_add_scaled

    rows = sorted(table.values(), key=lambda r: (sum(r.beta.decomp), r.beta.decomp))
    for recipe in rows[:9]:
        gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(recipe.beta), pi))
        span = FractionSpan()
        for g in gens:
            span.add(g)
        for name, _, expr in recipe.generators:
            lim = classical_limit_expr(expr, cb, recipe.auxiliaries)
            assert lim and span.contains(lim)
        cartan = {}
        for i, c in enumerate(recipe.k_monomial):
            if c:
                vec_add_scaled(cartan, cb.h(i), c * rs.symmetrizers[i])
        assert span.contains(cartan)
    # deep rows are reported as unverified at the configured degree, exactly
    # where the generator degrees exceed the cap
    big = parse_root(rs, "a1+2a2+2a3+3a4+2a5+a6")
    report = run_full_verification(rs, big, degree_cap=6)
    assert report.verdict == "inconclusive"
    assert report.degrees_used == 6
    degree = {name: g.degree() for name, g in builtin_recipe(rs, big).evaluate(alg)}
    unverified = {(p["i"], p["j"]) for p in report.flatness if p["verdict"] == "unverified"}
    assert (len(report.flatness), len(unverified)) == (231, 195)
    assert unverified == {
        (p["i"], p["j"])
        for p in report.flatness
        if p["i"] != "K" and degree[p["i"]] + degree[p["j"]] > 6
    }
    statuses = [g["status"] for g in report.coideal]
    assert (len(statuses), statuses.count("unverified")) == (22, 8)
    # short rows verify fully end to end, including a diagram-flipped variant
    for lit in ["a1", "a1+a3", "a5+a6", "a2+a4", "a1+a3+a4"]:
        report = run_full_verification(rs, parse_root(rs, lit))
        assert report.verdict == "pass", (lit, report.stage_error)
    _line("criterion-7 (E6 smoke)", True, f"{time.monotonic() - t0:.2f}s")


def test_criterion_8_fixed_rank_substitution():
    # the unbounded-rank statements are covered by the fixed-rank instances
    # plus the property suites; assert that every instance passed end to end
    verdicts = {}
    for series, rank, lit in VERIFICATION_CASES:
        report, _ = report_of(series, rank, lit)
        verdicts[f"{series}{rank}:{lit}"] = report.verdict
    ok = all(v == "pass" for v in verdicts.values())
    _line(
        "criterion-8 (fixed-rank substitution for the general statements)",
        ok,
        f"{sum(1 for v in verdicts.values() if v == 'pass')}/{len(verdicts)} instances pass",
    )
    assert ok, verdicts
