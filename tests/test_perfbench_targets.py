"""The traced benchmark wraps public callables by name: each must resolve."""

import importlib.util
from pathlib import Path

import pytest

from vgroups import document

TRACER_PATH = Path(__file__).parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module_name,qualname", tracer.TARGETS,
                         ids=[f"{m}.{q}" for m, q in tracer.TARGETS])
def test_trace_target_resolves(module_name, qualname):
    owner, attr = tracer._resolve(module_name, qualname)
    assert callable(getattr(owner, attr))


def test_schema_span_target_resolves():
    # the tracer wraps vgroups.document.jsonschema.validate when it installs,
    # although parse_document no longer calls it: a lazy jsonschema import
    # would break the traced benchmark
    assert callable(document.jsonschema.validate)
