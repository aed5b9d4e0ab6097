import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_attributes_exist():
    # the traced benchmark run (bench/run.py --trace 1) replaces each
    # (module, attribute) in WRAPS; a renamed or removed one would make it
    # die with AttributeError
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.WRAPS and not missing
