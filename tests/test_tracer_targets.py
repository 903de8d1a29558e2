"""The benchmark tracer's targets still name functions of the package.

The tracer (``cdbench/tracer.py``) wraps each target by its module and
attribute path; a target that no longer resolves would stop the traced
benchmark run, so tier-1 reads the table and resolves every entry
without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "cdbench" / "tracer.py"


def read_tracer():
    spec = importlib.util.spec_from_file_location("cdbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_resolves():
    tracer = read_tracer()
    assert tracer.TARGETS
    for layer, module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = vars(owner)[name]
        target = vars(owner).get(attr)
        assert callable(getattr(target, "__func__", target)), layer
