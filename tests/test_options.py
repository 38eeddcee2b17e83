"""Every option of the public API, frozen.

An option is a parameter with a default: of a public function, of a
public method, or of the constructor of a public class that a
``vgroups`` module defines (a dataclass's generated ``__init__``
included).  Callables bound in a module but defined elsewhere, such as
``dataclasses.asdict``, and the ``__main__`` module are skipped.  A
change that adds or removes an option edits ``OPTIONS`` and says why.
"""

import importlib
import inspect
import pkgutil

import vgroups
from vgroups import groups, reports

OPTIONS = [
    "battery.run_battery(level)",
    "builders.Suite(cache)",
    "builders.standard_suite(level)",
    "cli.run(argv)",
    "cli.run(out)",
    "document.WorkbenchDocument(morphisms)",
    "document.WorkbenchDocument(quantale_spec)",
    "document.WorkbenchDocument(morphism_specs)",
    "document.parse_document(base_dir)",
    "document.parse_document(loading)",
    "document.load_document(loading)",
    "document.document_from_vgroup(quantale_spec)",
    "factorization.classify_morphism(cache)",
    "factorization.reflective_factorize(cache)",
    "factorization.monotone_light_factorize(cache)",
    "groups.FiniteGroup(names)",
    "quantale.builtin_quantale(m)",
    "reports.ValidationReport(violations)",
    "reports.ValidationReport(notes)",
    "torsion.decompose(cache)",
    "torsion.default_test_family(cache)",
    "torsion.verify_pretorsion_kernel(test_objects)",
    "torsion.verify_pretorsion_kernel(cache)",
    "torsion.verify_pretorsion_cokernel(test_objects)",
    "torsion.verify_pretorsion_cokernel(cache)",
    "torsion.pretorsion_decompose(test_objects)",
    "torsion.pretorsion_decompose(cache)",
    "vgroup.VHom(name)",
    "vgroup.trivial_vgroup(value)",
]


def _callables(module):
    """(qualified name, function) for each public function, public method
    and own constructor of a public class that ``module`` defines, in
    definition order."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            init = vars(obj).get("__init__")
            if inspect.isfunction(init):
                yield name, init
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member) \
                        and member.__module__ == module.__name__:
                    yield f"{name}.{attr}", member


def public_options():
    found = []
    for info in pkgutil.iter_modules(vgroups.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"vgroups.{info.name}")
        for qualname, function in _callables(module):
            found += [f"{info.name}.{qualname}({p.name})"
                      for p in inspect.signature(function).parameters.values()
                      if p.default is not p.empty]
    return found


def test_the_public_options_are_the_frozen_list():
    assert public_options() == OPTIONS


def test_the_scan_sees_methods_and_class_methods():
    # no method has an option, so the frozen list alone would not show it
    assert "ValidationReport.add" in dict(_callables(reports))
    assert "FiniteGroup.cyclic" in dict(_callables(groups))
