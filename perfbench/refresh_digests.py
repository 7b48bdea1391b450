#!/usr/bin/env python3
"""Regenerate data/digests.json: the SHA-256 of every benchmark command's
standard output (`--no-timings` reports for verify), with cold tables.

    python3 perfbench/refresh_digests.py

Run it only on a commit whose reports are the accepted reference; a change
that is meant to keep reports bit-for-bit must not touch the file.  The
table-cache workload reuses the acceptance commands and so their digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    os.environ.pop(run.CACHE_ENV, None)
    q = run.import_qcoiso()
    spec = json.loads((run.DATA / "expected.json").read_text(encoding="utf-8"))
    digests = {}
    for workload in ("acceptance", "e6-capped", "classical-scan"):
        for cmd in run.build_commands(workload, spec):
            code, stdout, error = run.run_command(q.cli.main, cmd.argv)
            if code is None:
                raise SystemExit(f"{cmd.key} raised:\n{error}")
            digests[cmd.key] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            print(f"exit {code}  {cmd.key}", file=sys.stderr)
    path = run.DATA / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path.relative_to(run.ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
