"""The benchmark's tracer (``bench/tracing.py``) wraps trapeval's names by
attribute. Installing it here makes a deleted or renamed name it patches
fail tier-1, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer_class() -> type:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_bench_tracer_installs_and_uninstalls_against_the_package():
    tracer = load_tracer_class()()
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert len(patched) > 30
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
