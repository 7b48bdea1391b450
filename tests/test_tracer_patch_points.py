"""The benchmark tracer (perfbench/tracing.py) patches package names by
attribute; a deleted or renamed one fails its install.  This checks, in
seconds, that every patch point exists and that uninstalling restores each
original."""

import importlib.util
from pathlib import Path

import qcoiso
import qcoiso.cli  # noqa: F401 - the tracer patches names in the cli module

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patch_point_and_uninstalls():
    tracer = _tracing_module().Tracer()
    originals = {}
    try:
        tracer.install(qcoiso)
        for obj, attr, original in tracer._patches:
            originals.setdefault((obj, attr), original)
    finally:
        tracer.uninstall()
    assert originals
    for (obj, attr), original in originals.items():
        assert getattr(obj, attr) is original, (obj, attr)
