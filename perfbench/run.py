#!/usr/bin/env python3
"""qcoiso benchmark: time to an exact verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 15 --trace 0

One process runs one workload.  The commands go through the real entry point,
in-process `qcoiso.cli.main(argv)`, one at a time (closed loop, one client,
one thread), with `--format json --no-timings --jobs 1` on every `verify`.
The seed only permutes the order of the commands.  Passes over the command
list repeat until `--seconds` have elapsed; every output is checked against
the hand-written expectations in data/expected.json and the reference
digests in data/digests.json.

With `--trace 0` the last line of standard output reports the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate and it reports
the per-layer metrics (see tracing.py).  The line before it is a JSON object
with the diagnostics: environment, pass times, per-case seconds and faults.
Times are calibrated against machine-speed drift (see Clock).  See README.md
for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

WORKLOADS = ("acceptance", "e6-capped", "classical-scan", "table-cache")
VERIFY_FLAGS = ["--format", "json", "--no-timings", "--jobs", "1"]
CACHE_ENV = "QCOISO_CACHE"
# set-up repeats per run; setup_s is their median.  A table-cache set-up
# includes a full cold pass, so it is repeated less.
SETUP_REPEATS = {"acceptance": 5, "e6-capped": 5, "classical-scan": 5, "table-cache": 2}
# an untraced run measures at least this many passes, however long they
# take; e6-capped needs three because its 10 s command drifts the most
MIN_PASSES = {"acceptance": 2, "e6-capped": 3, "classical-scan": 2, "table-cache": 2}
# calibration (see Clock): a slice group at least this often between timed
# items, lasting this share of the time since the previous group, and the
# slice time that stands for the reference machine speed
SLICE_EVERY_S = 0.2
SLICE_SHARE = 0.05
REFERENCE_SLICE_S = 0.015


class Command:
    """One CLI invocation and the check of its output."""

    def __init__(self, argv, check):
        self.argv = argv
        self.key = " ".join(argv)
        self.check = check  # (exit code, parsed stdout) -> (faults, decided, total)


# ---------------------------------------------------------------------------
# Checks against the hand-written expectations.
# ---------------------------------------------------------------------------

def _certificates(payload):
    for gen in payload["coideal"]["per_generator"]:
        yield from gen["certificates"]
    for pair in payload["flatness"]["per_pair"]:
        if "certificate" in pair:
            yield pair["certificate"]


def _verify_check(expect, gen_status, pair_status):
    """Check of a verify report; gen_status(name) and pair_status(i, j) give
    the expected status, or None where nothing is pinned."""

    def check(code, payload):
        faults = []
        if code != expect["exit"]:
            faults.append(f"exit {code}, expected {expect['exit']}")
        if payload["verdict"] != expect["verdict"]:
            faults.append(f"verdict {payload['verdict']}, expected {expect['verdict']}")
        if any(c.get("residual_check") is False for c in _certificates(payload)):
            faults.append("a certificate has residual_check false")
        statuses = []
        for gen in payload["coideal"]["per_generator"]:
            want = gen_status(gen["name"])
            statuses.append(gen["status"])
            if want is not None and gen["status"] != want:
                faults.append(f"coideal {gen['name']}: {gen['status']}, expected {want}")
            for needle in expect.get("witness", {}).get(gen["name"], []):
                if needle not in gen.get("witness", ""):
                    faults.append(f"coideal {gen['name']}: witness does not name {needle}")
        for pair in payload["flatness"]["per_pair"]:
            want = pair_status(pair["i"], pair["j"])
            statuses.append(pair["verdict"])
            if want is not None and pair["verdict"] != want:
                faults.append(f"pair ({pair['i']}, {pair['j']}): {pair['verdict']}, expected {want}")
        decided = sum(1 for s in statuses if s in ("pass", "fail"))
        return faults, decided, len(statuses)

    return check


def _roots_check(expect):
    def check(code, payload):
        faults = []
        if code != 0:
            faults.append(f"exit {code}, expected 0")
        rows = payload["positive_roots"]
        if [r["root"] for r in rows] != expect["positive_roots"]:
            faults.append("positive roots differ from the input list")
        got = sorted(r["root"] for r in rows if r["admissible"])
        if got != sorted(expect["admissible"]):
            faults.append(f"admissible set {got}, expected {sorted(expect['admissible'])}")
        return faults, 0, 0

    return check


def _classical_check(admissible):
    def check(code, payload):
        faults = []
        checks = payload["checks"]
        all_pass = all(v is True for v in checks.values())
        if payload["admissible"] != admissible:
            faults.append(f"admissible {payload['admissible']}, expected {admissible}")
        if admissible and not all_pass:
            faults.append(f"checks {checks}, expected all to pass")
        if code != (0 if all_pass else 1):
            faults.append(f"exit {code} does not match checks {checks}")
        decided = sum(1 for v in checks.values() if isinstance(v, bool))
        return faults, decided, len(checks)

    return check


def build_commands(workload, spec):
    """The workload's command list, in its canonical order."""
    if workload in ("acceptance", "table-cache"):
        acc = spec["acceptance"]
        check = _verify_check(acc, lambda name: "pass", lambda i, j: "pass")
        commands = [
            Command(
                ["verify", "--type", s, "--rank", str(n), "--beta", lit] + VERIFY_FLAGS,
                check,
            )
            for s, n, lit in acc["cases"]
        ]
        neg = acc["negative"]
        failing = set(neg["coideal_fail"])
        commands.append(
            Command(
                ["verify", "--recipe", neg["recipe"]] + VERIFY_FLAGS,
                _verify_check(
                    neg,
                    lambda name: "fail" if name in failing else "pass",
                    lambda i, j: None,
                ),
            )
        )
        return commands
    if workload == "e6-capped":
        cap = spec["e6-capped"]
        commands = []
        for lit, degrees in cap["generator_degrees"].items():
            deg = dict(degrees, K=0)
            limit = cap["degree_cap"]

            def gen_status(name, deg=deg, limit=limit):
                return "unverified" if deg[name] > limit else "pass"

            def pair_status(i, j, deg=deg, limit=limit):
                over = i != "K" and deg[i] + deg[j] > limit
                return "unverified" if over else "pass"

            argv = ["verify", "--type", "E", "--rank", "6", "--beta", lit,
                    "--degree-cap", str(limit)] + VERIFY_FLAGS
            commands.append(Command(argv, _verify_check(cap, gen_status, pair_status)))
        return commands
    if workload == "classical-scan":
        commands = []
        for t in spec["classical-scan"]["types"]:
            tr = ["--type", t["type"], "--rank", str(t["rank"])]
            commands.append(Command(["roots"] + tr + ["--format", "json"], _roots_check(t)))
            admissible = set(t["admissible"])
            for root in t["positive_roots"]:
                argv = ["classical"] + tr + ["--beta", root, "--force", "--format", "json"]
                commands.append(Command(argv, _classical_check(root in admissible)))
        return commands
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running.
# ---------------------------------------------------------------------------

def import_qcoiso():
    """A fresh import of the package under src/ of this checkout."""
    for name in [m for m in sys.modules if m == "qcoiso" or m.startswith("qcoiso.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    q = importlib.import_module("qcoiso")
    importlib.import_module("qcoiso.cli")
    if Path(q.__file__).resolve().parent != (SRC / "qcoiso").resolve():
        raise ImportError(f"qcoiso was imported from {q.__file__}, not from {SRC}")
    return q


def run_command(main, argv):
    """(exit code, stdout, error text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a raising command is a counted fault
        code = None
        error = traceback.format_exc(limit=3)
    return code, out.getvalue(), error or err.getvalue()


# ---------------------------------------------------------------------------
# Calibrated time.
# ---------------------------------------------------------------------------

def _slice_kernel(table, keys):
    """Fixed pure-Python work: about 11 ms of small-integer tuple products
    accumulated into a dict, the shape of the package's hot loops, then
    about 4 ms of lookups at random places in a dict of about 13 MB, which
    slows with memory traffic as the package's large dicts do."""
    acc = {}
    for r in range(1, 751):
        a = tuple((i * r * 7919) % 211 - 105 for i in range(12))
        b = tuple((i + r) % 13 - 6 for i in range(9))
        out = [0] * 20
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        key = (r % 7, out[0] % 5)
        acc[key] = acc.get(key, 0) + out[-1]
    for key in keys:
        acc[key[2]] = acc.get(key[2], 0) + table[key]
    return acc


class Timed:
    """Measured seconds of one timed item and, once known, calibrated seconds."""

    __slots__ = ("raw", "cal")

    def __init__(self, raw, cal=None):
        self.raw = raw
        self.cal = cal


class Clock:
    """Times work in calibrated seconds.

    The machine's speed drifts by tens of percent over minutes, and the
    drift moves all pure-Python work alike.  So groups of a fixed calibration
    slice run between timed items, at least every SLICE_EVERY_S; a group
    lasts SLICE_SHARE of the time since the previous one, and at least one
    slice.  Each item's measured seconds are scaled by REFERENCE_SLICE_S over
    the mean of the median slices of the groups just before and just after
    it.  Slices are not part of any item.
    """

    def __init__(self):
        entries = [(i % 97, i // 97, i & 7) for i in range(1 << 16)]
        self._table = {key: i for i, key in enumerate(entries)}
        self._keys = [entries[i] for i in random.Random(1).sample(range(len(entries)), 8000)]
        self.slices = []
        self._prev = None  # median slice of the last group
        self._at = 0.0
        self._pending = []

    def _calibrate(self):
        start = time.perf_counter()
        want = SLICE_SHARE * (start - self._at) if self._prev is not None else 0.0
        group = []
        while True:
            t0 = time.perf_counter()
            _slice_kernel(self._table, self._keys)
            t1 = time.perf_counter()
            group.append(t1 - t0)
            if t1 - start >= want:
                break
        speed = statistics.median(group)
        for item in self._pending:
            item.cal = item.raw * REFERENCE_SLICE_S / ((self._prev + speed) / 2)
        self._pending.clear()
        self._prev, self._at = speed, t1
        self.slices.extend(group)

    def time(self, fn, *args):
        """(fn(*args), Timed); the calibrated time is set by a later group."""
        if self._prev is None or time.perf_counter() - self._at >= SLICE_EVERY_S:
            self._calibrate()
        t0 = time.perf_counter()
        result = fn(*args)
        item = Timed(time.perf_counter() - t0)
        self._pending.append(item)
        return result, item

    def settle(self):
        """Calibrate now, so every timed item has its calibrated time."""
        if self._pending:
            self._calibrate()


class Tally:
    """Outcomes of the checked command executions of one run."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.drifted = set()
        self.drift_runs = 0
        self.decided = 0
        self.items = 0
        self.overcap_pairs = 0
        self.unverified_generators = 0
        self.faults = []

    def record(self, cmd, code, stdout, error):
        self.attempted += 1
        faults = []
        if code is None:
            faults.append("raised: " + error.strip().splitlines()[-1])
        else:
            try:
                payload = json.loads(stdout)
            except ValueError:
                faults.append(f"exit {code}, output is not JSON: {error.strip()[:200]}")
            else:
                got, decided, total = cmd.check(code, payload)
                faults.extend(got)
                self.decided += decided
                self.items += total
                if cmd.argv[0] == "verify":
                    self.overcap_pairs += sum(
                        1 for p in payload["flatness"]["per_pair"]
                        if "exceeds the configured degree cap" in p.get("note", "")
                    )
                    self.unverified_generators += sum(
                        1 for g in payload["coideal"]["per_generator"]
                        if g["status"] == "unverified"
                    )
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        drift = digest != self.digests.get(cmd.key)
        if drift:
            self.drifted.add(cmd.key)
            self.drift_runs += 1
        if faults or drift:
            self.failed += 1
        if faults:
            self.faults.append({"command": cmd.key, "faults": faults})


def run_pass(clock, main, commands, tally, times=None, tracer=None, names=None):
    """Run the command list once and check every output; returns the Timed
    sum of the command times.  With a tracer, each command gets its own id."""
    items = []
    for cmd in commands:
        if tracer is not None:
            tracer.command = len(names)
            names[tracer.command] = cmd.key
        (code, stdout, error), item = clock.time(run_command, main, cmd.argv)
        items.append((cmd.key, item))
        tally.record(cmd, code, stdout, error)
    clock.settle()
    if times is not None:
        for key, item in items:
            times[key].append(item.cal)
    return Timed(sum(i.raw for _, i in items), sum(i.cal for _, i in items))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def load_inputs(args):
    spec = json.loads((DATA / "expected.json").read_text(encoding="utf-8"))
    if args.tamper_expectation:
        spec["acceptance"]["verdict"] = "fail"
        spec["e6-capped"]["verdict"] = "pass"
        spec["classical-scan"]["types"][0]["admissible"] = []
    digests = json.loads((DATA / "digests.json").read_text(encoding="utf-8"))
    commands = build_commands(args.workload, spec)
    random.Random(args.seed).shuffle(commands)
    if args.tamper_digest:
        digests[commands[0].key] = "0" * 64
    return spec, digests, commands


def prepare(args):
    """Import the package and build the inputs."""
    q = import_qcoiso()
    return (q, *load_inputs(args))


def measure(args):
    """Set up SETUP_REPEATS times, then run the passes."""
    os.environ.pop(CACHE_ENV, None)
    before = peak_rss_mb()
    clock = Clock()
    clock_mb = peak_rss_mb() - before
    setup_samples = []
    cache_dir = fill = None
    try:
        for _ in range(SETUP_REPEATS[args.workload]):
            (q, spec, digests, commands), item = clock.time(prepare, args)
            parts = [item]
            if args.workload == "table-cache":
                if cache_dir:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                TMP.mkdir(exist_ok=True)
                cache_dir = tempfile.mkdtemp(prefix="table-cache-", dir=TMP)
                os.environ[CACHE_ENV] = cache_dir
                fill = Tally(digests)
                parts.append(run_pass(clock, q.cli.main, commands, fill))
            clock.settle()
            setup_samples.append(Timed(sum(p.raw for p in parts), sum(p.cal for p in parts)))
        return run_passes(args, clock, clock_mb, q, spec, digests, commands, fill, setup_samples)
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


def run_passes(args, clock, clock_mb, q, spec, digests, commands, fill, setup_samples):
    from tracing import Tracer

    tally = Tally(digests)
    tracer = Tracer() if args.trace else None
    main = q.cli.main
    plain, traced = [], []
    times = defaultdict(list)
    names = {}
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install(q)
            try:
                traced_main = tracer.span("cli", q.cli.main)
                traced.append(run_pass(clock, traced_main, commands, tally, None, tracer, names))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(clock, main, commands, tally, times))
        done = time.perf_counter() - start >= args.seconds
        if done and (traced if tracer else len(plain) >= MIN_PASSES[args.workload]):
            break

    npass = len(plain) + len(traced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "commands": len(commands),
        "calibration_mb": clock_mb,
        "pass_s": [p.cal for p in plain],
        "pass_raw_s": [p.raw for p in plain],
        "traced_pass_s": [p.cal for p in traced],
        "setup_samples_s": [t.cal for t in setup_samples],
        "setup_samples_raw_s": [t.raw for t in setup_samples],
        "slice_s": {
            "median": statistics.median(clock.slices),
            "min": min(clock.slices),
            "max": max(clock.slices),
            "count": len(clock.slices),
        },
        "case_s": {key: statistics.median(v) for key, v in sorted(times.items())},
        "failed_share": tally.failed / tally.attempted,
        "report_drift": len(tally.drifted),
        "decided_share": tally.decided / tally.items,
        "overcap_pairs_per_pass": tally.overcap_pairs / npass,
        "unverified_generators_per_pass": tally.unverified_generators / npass,
        "faults": tally.faults[:20],
        "drifted": sorted(tally.drifted)[:20],
    }
    run_faults = []
    if fill is not None and fill.failed:
        run_faults.append("the cache-filling pass failed its checks")
    if args.workload == "e6-capped":
        cap = spec["e6-capped"]
        pairs = sum(cap["unverified_pairs"].values())
        gens = sum(cap["unverified_generators"].values())
        if (tally.overcap_pairs, tally.unverified_generators) != (pairs * npass, gens * npass):
            run_faults.append(
                f"unverified counts {tally.overcap_pairs}/{tally.unverified_generators} over "
                f"{npass} passes, expected {pairs}/{gens} per pass"
            )
    detail["run_faults"] = run_faults

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(detail["pass_s"]), "s"),
            "setup_s": (statistics.median(detail["setup_samples_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb() - clock_mb, "MB"),
            "decided_share": (detail["decided_share"], "ratio"),
            "ok_share": (1 - detail["failed_share"], "ratio"),
            "report_match_share": (1 - tally.drift_runs / tally.attempted, "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        overhead = statistics.median(detail["traced_pass_s"]) / statistics.median(detail["pass_s"])
        metrics = tracer.metrics(len(traced), detail["overcap_pairs_per_pass"], overhead)
        detail["largest_self"] = tracer.largest_self()
        detail["spans"] = len(tracer.spans)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, names)
        detail["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {
        "correct": tally.failed == 0 and not run_faults,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test switches: a wrong expected verdict and a wrong reference
    # digest must both show up as failures
    p.add_argument("--tamper-expectation", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tamper-digest", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args)
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
