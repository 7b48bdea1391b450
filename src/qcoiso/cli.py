"""Command-line driver: admissibility listings, classical construction,
full verification runs, golden identity solves and recipe validation."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .classical import (
    ad_bivector,
    build_r_matrix,
    build_realization,
    check_coisotropic,
    coisotropic_generators,
)
from .recipes import RecipeError, parse_recipe
from .rootsys import (
    CartanType,
    RootSystem,
    build_root_system,
    is_admissible,
    parse_root,
)
from .verify import builtin_identity, run_full_verification, solve_identity

CACHE_ENV = "QCOISO_CACHE"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error, as every other input error does: argparse's
    own 2 is the exit code of an inconclusive verdict.  Subcommand parsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@cache
def _build_parser():
    """The parser, built on the first call and reused: parsing keeps no state
    in it, as every parse fills a fresh namespace."""
    parser = _Parser(
        prog="qcoiso",
        description=(
            "Exact construction and verification of coideal subalgebras "
            "quantizing coisotropic subalgebras of semisimple Lie bialgebras"
        ),
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("roots", help="list positive roots with admissibility marks")
    _add_type_rank(p)
    _add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("classical", help="classical generators and coisotropy checks")
    _add_type_rank(p)
    p.add_argument("--beta", required=True, help="root literal, e.g. L1-L4 or 3a1+2a2")
    p.add_argument(
        "--force",
        action="store_true",
        help="compute the bracket span even for an inadmissible root",
    )
    _add_format(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _add_type_rank(p, required=False)
    p.add_argument("--beta", help="root literal")
    p.add_argument("--recipe", help="path to a recipe document (JSON)")
    p.add_argument("--degree-cap", type=int, default=14, help="hard table ceiling")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; verification runs sequentially"
    )
    p.add_argument("--output", help="write the JSON report to this path")
    p.add_argument("--no-timings", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve a named golden identity")
    p.add_argument("name", help="ijkj | eiej-ekej | so-odd-5term | g2-e2t")
    _add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("recipe", help="recipe document utilities")
    rsub = p.add_subparsers(required=True)
    pv = rsub.add_parser("validate", help="parse and validate a recipe document")
    pv.add_argument("path")
    _add_format(pv)
    pv.set_defaults(func=cmd_recipe_validate)

    return parser


def _add_type_rank(p, required=True):
    p.add_argument("--type", dest="series", required=required, help="A|B|C|D|E|F|G")
    p.add_argument("--rank", type=int, required=required)


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _root_system(args) -> RootSystem:
    return build_root_system(CartanType(args.series.upper(), args.rank))


def cmd_roots(args) -> int:
    rs = _root_system(args)
    rows = []
    for r in rs.positive_roots:
        rows.append(
            {
                "root": rs.render_root(r),
                "simple_form": str(r),
                "admissible": is_admissible(rs, r),
            }
        )
    if args.format == "json":
        print(json.dumps({"type": str(rs.type), "positive_roots": rows}, indent=2))
        return 0
    marked = sum(1 for row in rows if row["admissible"])
    print(f"{rs.type}: {len(rows)} positive roots, {marked} admissible")
    for row in rows:
        mark = "admissible" if row["admissible"] else "-"
        print(f"  {row['root']:<16} [{row['simple_form']}]  {mark}")
    return 0


def cmd_classical(args) -> int:
    rs = _root_system(args)
    beta = parse_root(rs, args.beta)
    admissible = is_admissible(rs, beta)
    if not admissible and not args.force:
        print(
            f"error: {rs.render_root(beta)} fails the root-string condition "
            "(rerun with --force to compute the bracket span anyway)",
            file=sys.stderr,
        )
        return 1
    cb = build_realization(rs)
    pi = build_r_matrix(cb)
    gens = coisotropic_generators(cb, ad_bivector(cb, cb.e(beta), pi))
    checks = check_coisotropic(cb, pi, gens)
    from .classical import check_master_equation

    payload = {
        "type": rs.type.series,
        "rank": rs.rank,
        "beta": rs.render_root(beta),
        "admissible": admissible,
        "generators": [cb.render_element(g) for g in gens],
        "checks": {**checks, "master_equation": check_master_equation(cb, cb.e(beta), pi)},
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{rs.type} beta={payload['beta']}: {len(gens)} generators")
        for g in payload["generators"]:
            print(f"  {g}")
        for k, v in payload["checks"].items():
            print(f"  {k}: {'pass' if v else 'fail'}")
    return 0 if all(payload["checks"].values()) else 1


def cmd_verify(args) -> int:
    if args.degree_cap < 1:
        raise ValueError(f"--degree-cap must be at least 1, got {args.degree_cap}")
    recipe = None
    case_flags = {"--type": args.series, "--rank": args.rank, "--beta": args.beta}
    if args.recipe:
        given = [flag for flag, value in case_flags.items() if value is not None]
        if given:
            raise ValueError(f"--recipe names its own case; drop {', '.join(given)}")
        recipe = _load_recipe(args.recipe)
        rs = build_root_system(recipe.cartan_type)
        beta = recipe.beta
    else:
        if None in case_flags.values():
            raise ValueError("provide --type/--rank/--beta or --recipe")
        rs = _root_system(args)
        beta = parse_root(rs, args.beta)
    report = run_full_verification(
        rs,
        beta,
        recipe=recipe,
        degree_cap=args.degree_cap,
        cache_path=_cache_path(rs),
    )
    payload = report.to_json(include_timings=not args.no_timings)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    if args.format == "json":
        print(rendered)
    else:
        _print_report_text(payload)
    return {"pass": 0, "fail": 1, "inconclusive": 2}[payload["verdict"]]


def _print_report_text(payload):
    case = payload["case"]
    print(f"case: {case['type']}{case['rank']} beta={case['beta']}")
    print(f"admissible: {payload['admissible']}")
    if payload.get("classical"):
        c = payload["classical"]
        print(f"classical: coisotropic={c['coisotropic']} dim={c['dim']}")
    for g in payload["coideal"]["per_generator"]:
        print(f"coideal {g['name']}: {g['status']}")
        if g.get("witness"):
            print(f"  witness: {g['witness']}")
    for p in payload["flatness"]["per_pair"]:
        extra = f"  X'={p.get('xprime')}" if p.get("xprime") not in (None, "0") else ""
        print(f"flatness ({p['i']}, {p['j']}): {p['verdict']}{extra}")
        if p.get("note"):
            print(f"  note: {p['note']}")
    if payload.get("stage_error"):
        print(f"stage error: {payload['stage_error']}")
    print(f"verdict: {payload['verdict']}")


def cmd_solve(args) -> int:
    target, templates, meta = builtin_identity(args.name)
    cert = solve_identity(target, templates + meta.get("ambient", []))
    if cert is None:
        print("no solution", file=sys.stderr)
        return 1
    named = [label for label, _ in templates]
    payload = {
        "identity": args.name,
        "description": meta.get("description", ""),
        "coefficients": {label: cert["coefficients"].get(label, "0") for label in named},
        "extra_support": sorted(
            label for label in cert["coefficients"] if label not in set(named)
        ),
        "nullspace_dim": cert["nullspace_dim"],
        "residual_check": cert["residual_check"],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"identity {args.name}: {payload['description']}")
        for label in named:
            print(f"  {label:>6} = {payload['coefficients'][label]}")
        if payload["extra_support"]:
            print(f"  (+{len(payload['extra_support'])} relation-span terms)")
        print(f"  nullspace dimension: {payload['nullspace_dim']}")
        print(f"  residual check: {payload['residual_check']}")
    return 0


def _load_recipe(path):
    """The recipe document at path, parsed.  A document nested too deeply for
    the decoder or the parser is an input error, as any malformed one is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_recipe(json.load(fh))
        except RecursionError:
            raise RecipeError("recipe document nested too deeply") from None


def cmd_recipe_validate(args) -> int:
    recipe = _load_recipe(args.path)
    payload = {
        "valid": True,
        "case": {
            "type": recipe.cartan_type.series,
            "rank": recipe.cartan_type.rank,
            "beta": str(recipe.beta),
        },
        "generators": recipe.names(),
        "max_degree": recipe.max_degree(),
        "power_assignment": recipe.power_assignment,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"valid recipe for {payload['case']['type']}{payload['case']['rank']} "
            f"beta={payload['case']['beta']}: {len(recipe.names())} generators, "
            f"max degree {recipe.max_degree()}"
        )
    return 0


def _cache_path(rs):
    """Quotient-table cache file under the directory named by QCOISO_CACHE."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"{rs.type.series}{rs.rank}-tables.pkl")


if __name__ == "__main__":
    sys.exit(main())
