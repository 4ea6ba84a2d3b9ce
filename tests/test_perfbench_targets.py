"""The benchmark's span tracer must keep resolving every function it traces."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_installs():
    spans = _load_spans()
    for module_name, qualname, _ in spans.TARGETS:
        owner = importlib.import_module(f"strokeseg.{module_name}")
        for part in qualname.split("."):
            assert hasattr(owner, part), f"strokeseg.{module_name}.{qualname} is gone"
            owner = getattr(owner, part)
        assert callable(owner)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
