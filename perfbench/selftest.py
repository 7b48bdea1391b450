#!/usr/bin/env python3
"""Self-test of the benchmark.  From the root of a source checkout:

    python3 perfbench/selftest.py

It checks that
* one short pass of each workload, untraced and traced, prints every metric
  of BENCHMARK.json by name with its unit, passes its correctness checks, and
  attributes the largest self time to the layer measured when the benchmark
  was defined;
* a wrong expected verdict lands in the failures, and a wrong reference
  digest in the report drift, so neither check can pass silently;
* in a directory that holds only BENCHMARK.json and the benchmark, the run
  fails without printing a result.
Exits 0 when everything holds, 1 otherwise.  Takes about five minutes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys

import run

# largest self-time metric per workload (see README.md)
LARGEST_SELF = {
    "acceptance": "uqalg.nf_s",
    "e6-capped": "uqalg.nc_mul.flatness_s",
    "classical-scan": "classical.realization_s",
    "table-cache": "uqalg.nf_s",
}


def bench(root, workload, trace, *extra):
    """(exit code, detail, result or None) of one short run in `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = detail = None
    if proc.returncode == 0 and len(lines) >= 2:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    return proc.returncode, detail, result


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, detail, result = bench(run.ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(result is not None, f"{tag}: exits 0 with a result")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result has exactly correct, attempted, failed, metrics")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units[trace], f"{tag}: every metric of BENCHMARK.json, with its unit")
            expect(result["correct"] and result["failed"] == 0, f"{tag}: correct, none failed")
            expect(detail["failed_share"] == 0 and detail["report_drift"] == 0,
                   f"{tag}: failed_share 0 and report_drift 0")
            if trace:
                expect(detail["largest_self"] == LARGEST_SELF[workload],
                       f"{tag}: largest self time {detail['largest_self']}, "
                       f"expected {LARGEST_SELF[workload]}")
            if workload == "e6-capped":
                expect((detail["overcap_pairs_per_pass"], detail["unverified_generators_per_pass"])
                       == (186, 8), f"{tag}: 186 unverified pairs and 8 generators per pass")
            if workload == "classical-scan" and trace:
                calls = result["metrics"]["qfield.canonicalize_calls"]["value"]
                expect(calls == 0, f"{tag}: no Q(q) canonicalization")

    code, detail, result = bench(run.ROOT, "acceptance", 0, "--tamper-expectation")
    expect(result is not None and not result["correct"] and result["failed"] > 0
           and detail["failed_share"] > 0
           and result["metrics"]["ok_share"]["value"] < 1,
           "a wrong expected verdict counts in failed_share")
    code, detail, result = bench(run.ROOT, "acceptance", 0, "--tamper-digest")
    expect(result is not None and not result["correct"] and detail["report_drift"] == 1
           and result["metrics"]["report_match_share"]["value"] < 1,
           "a tampered digest counts in report_drift")

    bare = run.TMP / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, detail, result = bench(bare, "acceptance", 0)
        expect(code != 0 and result is None, "without the sources it exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.TMP.rmdir()

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
