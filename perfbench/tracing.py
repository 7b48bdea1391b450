"""Per-layer tracing for the qcoiso benchmark.

The tracer wraps module entry points of the imported `qcoiso` package at run
time; nothing in the package is edited.  A name imported with
`from ... import` is patched where it is looked up (for example
`verify.build_realization` as well as `cli.build_realization`).

Each wrapped call becomes a span (name, start, end, parent span, command id)
kept in memory.  A layer's self time is its span time minus the time of its
child spans.  Two boundaries are too hot for a span per call and are counted
instead, their time staying in the caller's self time:

* `qfield._canonical_pair`, the canonicalization behind every Q(q) value;
* `UqBorel.table` calls that hit an existing table (a call that builds is a
  span).
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

# (metric, unit, better), in report order.  `_s` metrics are self times,
# except the three verify stage totals marked inclusive in README.md.
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("rootsys.build_s", "s", "lower"),
    ("rootsys.admissible_s", "s", "lower"),
    ("classical.realization_s", "s", "lower"),
    ("classical.realization_calls", "count", "lower"),
    ("classical.rmatrix_s", "s", "lower"),
    ("classical.coisotropy_s", "s", "lower"),
    ("classical.span_s", "s", "lower"),
    ("recipes.build_s", "s", "lower"),
    ("recipes.evaluate_s", "s", "lower"),
    ("recipes.limit_s", "s", "lower"),
    ("uqalg.table_s", "s", "lower"),
    ("uqalg.table_calls", "count", "lower"),
    ("uqalg.table_builds", "count", "lower"),
    ("uqalg.cache_load_s", "s", "lower"),
    ("uqalg.cache_save_s", "s", "lower"),
    ("uqalg.cache_bytes", "bytes", "lower"),
    ("uqalg.nf_s", "s", "lower"),
    ("uqalg.nf_calls", "count", "lower"),
    ("uqalg.nf_terms", "count", "lower"),
    ("uqalg.nc_mul_s", "s", "lower"),
    ("uqalg.nc_mul_calls", "count", "lower"),
    ("uqalg.nc_mul.flatness_s", "s", "lower"),
    ("uqalg.nc_mul.flatness_calls", "count", "lower"),
    ("uqalg.nc_mul.products_s", "s", "lower"),
    ("uqalg.products_s", "s", "lower"),
    ("uqalg.products_count", "count", "lower"),
    ("uqalg.coproduct_s", "s", "lower"),
    ("uqalg.ideal_membership_s", "s", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.solve_calls", "count", "lower"),
    ("linalg.templates", "count", "lower"),
    ("linalg.useful_ratio", "ratio", "higher"),
    ("qfield.canonicalize_calls", "count", "lower"),
    ("qfield.canonicalize_s", "s", "lower"),
    ("qfield.laurent_share", "ratio", "higher"),
    ("verify.coideal_s", "s", "lower"),
    ("verify.flatness_s", "s", "lower"),
    ("verify.flatness_self_s", "s", "lower"),
    ("verify.pair_solves", "count", "lower"),
    ("verify.overcap_pairs", "count", "lower"),
    ("verify.fit_q1_s", "s", "lower"),
    ("verify.ideal_cert_s", "s", "lower"),
    ("verify.semiclassical_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

# metric -> span name whose self time it reports
SELF_TIMES = {
    "cli.self_s": "cli",
    "rootsys.build_s": "rootsys.build",
    "rootsys.admissible_s": "rootsys.admissible",
    "classical.realization_s": "classical.realization",
    "classical.rmatrix_s": "classical.rmatrix",
    "classical.coisotropy_s": "classical.coisotropy",
    "classical.span_s": "classical.span",
    "recipes.build_s": "recipes.build",
    "recipes.evaluate_s": "recipes.evaluate",
    "recipes.limit_s": "recipes.limit",
    "uqalg.table_s": "uqalg.table",
    "uqalg.cache_load_s": "uqalg.cache_load",
    "uqalg.cache_save_s": "uqalg.cache_save",
    "uqalg.nf_s": "uqalg.nf",
    "uqalg.nc_mul_s": "uqalg.nc_mul",
    "uqalg.products_s": "uqalg.products",
    "uqalg.coproduct_s": "uqalg.coproduct",
    "uqalg.ideal_membership_s": "uqalg.ideal_membership",
    "linalg.solve_s": "linalg.solve",
    "verify.flatness_self_s": "verify.flatness",
    "verify.fit_q1_s": "verify.fit_q1",
    "verify.ideal_cert_s": "verify.ideal_cert",
}

# metric -> span name whose inclusive time it reports (a stage total)
STAGE_TIMES = {
    "verify.coideal_s": "verify.coideal",
    "verify.flatness_s": "verify.flatness",
    "verify.semiclassical_s": "verify.semiclassical",
}

# nc_mul split by the span that called it
NC_MUL_CALLERS = {"verify.flatness": "flatness", "uqalg.products": "products"}


class Tracer:
    """Spans and counters of one traced run, and the patches that record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.stack = []
        self.command = 0
        self.counts = defaultdict(int)
        self.canon_s = 0.0
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, count=None):
        """fn wrapped in a span; count(args, result) adds to the counters."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _table(self, fn):
        traced = self.span("uqalg.table", fn)
        counts = self.counts

        def table(alg, mu):
            counts["uqalg.table_calls"] += 1
            if tuple(mu) in alg._tables:
                return fn(alg, mu)
            before = len(alg._tables)
            try:
                return traced(alg, mu)
            finally:
                counts["uqalg.table_builds"] += len(alg._tables) - before

        return table

    def _canonical_pair(self, fn):
        counts = self.counts
        clock = time.perf_counter

        def canonical_pair(num, den):
            t0 = clock()
            out = fn(num, den)
            self.canon_s += clock() - t0
            counts["qfield.canonicalize_calls"] += 1
            d = out[1]
            if len(d) - d.count(0) == 1:
                counts["qfield.laurent"] += 1
            return out

        return canonical_pair

    def _solve(self, fn):
        def solve(templates, target):
            templates = list(templates)
            self.counts["linalg.templates"] += len(templates)
            coeffs, nullspace = fn(templates, target)
            self.counts["linalg.rank"] += len(templates) - len(nullspace)
            return coeffs, nullspace

        return self.span("linalg.solve", solve)

    def _save_tables(self, fn):
        def save_tables(alg, path):
            fn(alg, path)
            if path and os.path.exists(path):
                self.counts["uqalg.cache_bytes"] += os.path.getsize(path)

        return self.span("uqalg.cache_save", save_tables)

    # -- installation ---------------------------------------------------------

    def _patch(self, obj, attr, wrapped):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapped)

    def install(self, q):
        """Patch the entry points of the imported package `q` (qcoiso)."""
        cli, classical, linalg = q.cli, q.classical, q.linalg
        qfield, recipes, rootsys, uqalg, verify = (
            q.qfield, q.recipes, q.rootsys, q.uqalg, q.verify
        )
        patch, span = self._patch, self.span

        for mod in (cli, rootsys):
            patch(mod, "build_root_system", span("rootsys.build", mod.build_root_system))
        for mod in (cli, verify, rootsys):
            patch(mod, "is_admissible", span("rootsys.admissible", mod.is_admissible))
        patch(
            rootsys,
            "admissible_positive_roots",
            span("rootsys.admissible", rootsys.admissible_positive_roots),
        )

        for mod in (cli, verify):
            patch(mod, "build_realization", span("classical.realization", mod.build_realization))
            patch(mod, "build_r_matrix", span("classical.rmatrix", mod.build_r_matrix))
            patch(mod, "ad_bivector", span("classical.span", mod.ad_bivector))
            patch(
                mod,
                "coisotropic_generators",
                span("classical.span", mod.coisotropic_generators),
            )
            patch(mod, "check_coisotropic", span("classical.coisotropy", mod.check_coisotropic))
        for mod in (classical, verify):
            patch(
                mod,
                "check_master_equation",
                span("classical.coisotropy", mod.check_master_equation),
            )
        base = verify.FractionSpan
        patch(
            verify,
            "FractionSpan",
            type(
                "FractionSpan",
                (base,),
                {
                    "add": span("classical.span", base.add),
                    "contains": span("classical.span", base.contains),
                },
            ),
        )

        patch(verify, "builtin_recipe", span("recipes.build", verify.builtin_recipe))
        patch(cli, "parse_recipe", span("recipes.build", cli.parse_recipe))
        patch(
            recipes.GeneratorRecipe,
            "evaluate",
            span("recipes.evaluate", recipes.GeneratorRecipe.evaluate),
        )
        patch(verify, "classical_limit_expr", span("recipes.limit", verify.classical_limit_expr))

        alg = uqalg.UqBorel
        patch(alg, "table", self._table(alg.table))

        def nf_terms(counts, args, _):
            counts["uqalg.nf_terms"] += len(args[1].terms)

        def nf_word_terms(counts, args, _):
            counts["uqalg.nf_terms"] += 1

        def products(counts, _, result):
            counts["uqalg.products_count"] += len(result)

        patch(alg, "nf_components", span("uqalg.nf", alg.nf_components, nf_terms))
        patch(alg, "nf_word", span("uqalg.nf", alg.nf_word, nf_word_terms))
        patch(alg, "nc_mul", span("uqalg.nc_mul", alg.nc_mul))
        patch(alg, "generator_products", span("uqalg.products", alg.generator_products, products))
        patch(alg, "coproduct", span("uqalg.coproduct", alg.coproduct))
        patch(alg, "ideal_membership", span("uqalg.ideal_membership", alg.ideal_membership))
        patch(alg, "load_tables", span("uqalg.cache_load", alg.load_tables))
        patch(alg, "save_tables", self._save_tables(alg.save_tables))

        # uqalg imports the solver inside its functions, so the module
        # attribute covers it; verify holds its own reference
        for mod in (linalg, verify):
            patch(mod, "solve_linear_combination", self._solve(mod.solve_linear_combination))
        patch(qfield, "_canonical_pair", self._canonical_pair(qfield._canonical_pair))

        patch(cli, "run_full_verification", span("verify.pipeline", cli.run_full_verification))
        patch(verify, "check_left_coideal", span("verify.coideal", verify.check_left_coideal))
        patch(verify, "check_flatness", span("verify.flatness", verify.check_flatness))
        patch(verify, "_solve_flatness_pair", span("verify.pair_solve", verify._solve_flatness_pair))
        patch(verify, "_fit_q1_constraints", span("verify.fit_q1", verify._fit_q1_constraints))
        patch(verify, "_ideal_part_certificate", span("verify.ideal_cert", verify._ideal_part_certificate))
        patch(verify, "check_semiclassical", span("verify.semiclassical", verify.check_semiclassical))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self):
        """{span name: [calls, inclusive s, self s]} plus the nc_mul split."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for n, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            keys = [name]
            if name == "uqalg.nc_mul" and parent >= 0:
                caller = NC_MUL_CALLERS.get(spans[parent][0])
                if caller:
                    keys.append(f"uqalg.nc_mul.{caller}")
            for key in keys:
                row = out[key]
                row[0] += 1
                row[1] += dur
                row[2] += dur - child[n]
        return out

    def metrics(self, passes, overcap_pairs, overhead):
        """Per-layer metrics, each a per-pass mean over `passes` traced passes;
        overcap_pairs is already per pass."""
        totals = self.totals()
        counts = self.counts
        values = {}
        for metric, span_name in SELF_TIMES.items():
            values[metric] = totals[span_name][2] / passes
        for metric, span_name in STAGE_TIMES.items():
            values[metric] = totals[span_name][1] / passes
        values["classical.realization_calls"] = totals["classical.realization"][0] / passes
        values["uqalg.nf_calls"] = totals["uqalg.nf"][0] / passes
        values["uqalg.nc_mul_calls"] = totals["uqalg.nc_mul"][0] / passes
        values["uqalg.nc_mul.flatness_s"] = totals["uqalg.nc_mul.flatness"][2] / passes
        values["uqalg.nc_mul.flatness_calls"] = totals["uqalg.nc_mul.flatness"][0] / passes
        values["uqalg.nc_mul.products_s"] = totals["uqalg.nc_mul.products"][2] / passes
        values["linalg.solve_calls"] = totals["linalg.solve"][0] / passes
        values["verify.pair_solves"] = totals["verify.pair_solve"][0] / passes
        for name in (
            "uqalg.table_calls",
            "uqalg.table_builds",
            "uqalg.cache_bytes",
            "uqalg.nf_terms",
            "uqalg.products_count",
            "linalg.templates",
            "qfield.canonicalize_calls",
        ):
            values[name] = counts[name] / passes
        values["linalg.useful_ratio"] = (
            counts["linalg.rank"] / counts["linalg.templates"] if counts["linalg.templates"] else 0.0
        )
        values["qfield.canonicalize_s"] = self.canon_s / passes
        calls = counts["qfield.canonicalize_calls"]
        values["qfield.laurent_share"] = counts["qfield.laurent"] / calls if calls else 0.0
        values["verify.overcap_pairs"] = overcap_pairs
        values["trace_overhead"] = overhead
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    def largest_self(self):
        """The self-time metric with the largest value, for the attribution check."""
        totals = self.totals()
        named = {m: totals[s][2] for m, s in SELF_TIMES.items()}
        for caller in NC_MUL_CALLERS.values():
            named[f"uqalg.nc_mul.{caller}_s"] = totals[f"uqalg.nc_mul.{caller}"][2]
        # the split is a refinement of uqalg.nc_mul_s, so compare it against
        # the remainder of nc_mul rather than the whole
        named["uqalg.nc_mul_s"] -= sum(
            totals[f"uqalg.nc_mul.{c}"][2] for c in NC_MUL_CALLERS.values()
        )
        return max(named, key=named.get)

    def write(self, path, names):
        """Write the spans as gzip JSON lines; `names` maps command ids to argv."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for cid, argv in sorted(names.items()):
                fh.write(json.dumps({"command": cid, "argv": argv}) + "\n")
            for n, (name, start, end, parent, cid) in enumerate(self.spans):
                fh.write(json.dumps([n, name, round(start, 7), round(end, 7), parent, cid]) + "\n")
