"""Span tracing of the vgroups layers, installed from outside the package.

Each traced callable is replaced by a wrapper that records one span per
call: its name, its parent (the span open when it was called), its start
and its end.  A function is rebound in every ``vgroups.*`` module
namespace that holds the same object, so calls made through a
``from .x import f`` name are caught too; a method is replaced on its
class.  Spans stay in memory, in flat arrays, until ``summary`` turns
them into per-name counts and self times.  ``uninstall`` puts every
original object back.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

# The public callables measured per layer, as (module, qualified name).
# A bare class name traces construction (its ``__init__``).
TARGETS = (
    ("quantale", "validate_quantale"),
    ("vrel", "VRel.then"),
    ("groups", "FiniteGroup"),
    ("groups", "FiniteGroup.direct_product"),
    ("groups", "FiniteGroup.all_normal_subgroups"),
    ("groups", "subgroup_group"),
    ("groups", "quotient_group"),
    ("vgroup", "validate_vgroup"),
    ("vgroup", "validate_hom"),
    ("vgroup", "classify_object"),
    ("vgroup", "classify_hom"),
    ("vgroup", "enumerate_structures"),
    ("vgroup", "enumerate_homs"),
    ("vgroup", "product"),
    ("vgroup", "pullback"),
    ("vgroup", "subobject"),
    ("vgroup", "quotient_vgroup"),
    ("vgroup", "kernel"),
    ("vgroup", "is_isomorphism"),
    ("torsion", "decompose"),
    ("torsion", "pretorsion_decompose"),
    ("torsion", "is_null_morphism"),
    ("torsion", "verify_pretorsion_kernel"),
    ("torsion", "verify_pretorsion_cokernel"),
    ("factorization", "cached_decomposition"),
    ("factorization", "classify_morphism"),
    ("factorization", "is_covering"),
    ("factorization", "reflective_factorize"),
    ("factorization", "monotone_light_factorize"),
    ("descent", "verify_cover_window"),
    ("descent", "kernel_pair_groupoid"),
    ("builders", "standard_suite"),
    ("builders", "Suite.homs_between"),
    ("builders", "Suite.all_homs"),
    ("document", "load_document"),
    ("document", "parse_document"),
    ("document", "canonical_json"),
    ("cli", "run"),
)

# The jsonschema.validate call that vgroups.document makes.
SCHEMA_SPAN = "document.schema_validate"

_CLOCK = time.perf_counter


class _ModuleView:
    """A module seen through a few overridden attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._span_name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._restore = []

    def wrap(self, name, fn):
        """A wrapper of ``fn`` that records one span named ``name`` per call."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator function; its spans would "
                            "end before its work does")
        name_id = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = (self._span_name, self._parent,
                                         self._start, self._end)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(_CLOCK())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = _CLOCK()
                stack.pop()
        return traced

    # -- installing and removing ------------------------------------------

    def install(self):
        """Wrap every target, each battery check and the schema check."""
        for module_name, qualname in TARGETS:
            owner, attr = _resolve(module_name, qualname)
            span = f"{module_name}.{qualname}"
            if inspect.isclass(owner):
                self._patch_method(owner, attr, span)
            else:
                self._rebind(getattr(owner, attr), span)
        battery = importlib.import_module("vgroups.battery")
        checks = battery.ALL_CHECKS
        battery.ALL_CHECKS = tuple(self._rebind(check, f"battery.{check.__name__}")
                                   for check in checks)
        self._restore.append((battery, "ALL_CHECKS", checks))
        document = importlib.import_module("vgroups.document")
        jsonschema = document.jsonschema
        document.jsonschema = _ModuleView(
            jsonschema, validate=self.wrap(SCHEMA_SPAN, jsonschema.validate))
        self._restore.append((document, "jsonschema", jsonschema))

    def uninstall(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _patch_method(self, cls, attr, span):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(span, original.__func__))
        else:
            replacement = self.wrap(span, original)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, original))

    def _rebind(self, fn, span):
        """Replace ``fn`` in every vgroups module namespace that holds it."""
        wrapper = self.wrap(span, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "vgroups" and not module_name.startswith("vgroups."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))
        return wrapper

    # -- reading the spans -------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; and the
        number of spans of each (parent name, name) pair."""
        count = len(self.names)
        calls = [0] * count
        total = [0.0] * count
        child_time = [0.0] * len(self._start)
        edges = {}
        for span, name_id in enumerate(self._span_name):
            duration = self._end[span] - self._start[span]
            calls[name_id] += 1
            total[name_id] += duration
            parent = self._parent[span]
            parent_name = None
            if parent >= 0:
                child_time[parent] += duration
                parent_name = self.names[self._span_name[parent]]
            key = (parent_name, self.names[name_id])
            edges[key] = edges.get(key, 0) + 1
        self_time = [0.0] * count
        for span, name_id in enumerate(self._span_name):
            self_time[name_id] += (self._end[span] - self._start[span]
                                   - child_time[span])
        layers = {name: {"calls": calls[i], "total_s": total[i],
                         "self_s": self_time[i]}
                  for i, name in enumerate(self.names)}
        return layers, edges


def _resolve(module_name, qualname):
    """(owner, attribute) for a target; a bare class means its constructor."""
    owner = importlib.import_module(f"vgroups.{module_name}")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    value = getattr(owner, parts[-1])
    if inspect.isclass(value):
        return value, "__init__"
    return owner, parts[-1]
