"""No hidden module-level state: a run leaves every global of the package
as it found it.

After import, each global of each ``vgroups`` module is fingerprinted:
its identity, and a deep walk of what it holds.  The walk descends into
containers and into the attributes and slots of plain objects, and, for
the functions and classes the package defines, into their defaults,
closures and attributes, so that a memo kept in any of them shows.  A
smoke battery and every command line command on the shipped documents
then run, and each fingerprint must read the same, with no global added
and no module imported beside them.
"""

import importlib
import io
import pkgutil
import sys
import types
from pathlib import Path

import vgroups
from vgroups import battery
from vgroups.builders import standard_suite
from vgroups.cli import run

DOCS = Path(__file__).parent.parent / "documents"
OBJECTS = ("z4_boolean.json", "z4_lawvere.json", "z4_boolean_morphism.json")
OBJECT_COMMANDS = (["validate"], ["classify"], ["decompose"], ["pretorsion"],
                   ["descent", "--window", "1"], ["descent", "--window", "3"])
MORPHISM_COMMANDS = ("classify", "factorize", "ml-factorize", "cover")
SCALARS = (int, float, complex, str, bytes, bool, type(None), range)
OPAQUE = (types.ModuleType, types.BuiltinFunctionType, types.MethodType,
          types.MethodWrapperType, types.WrapperDescriptorType)


def _ours(value):
    return getattr(value, "__module__", None) in sys.modules and \
        (value.__module__ == "vgroups" or value.__module__.startswith("vgroups."))


def _slots(value):
    """The slot values set on ``value``, by slot name."""
    found = {}
    for cls in type(value).__mro__:
        names = getattr(cls, "__slots__", ())
        for name in (names,) if isinstance(names, str) else names:
            if name not in ("__dict__", "__weakref__") and hasattr(value, name):
                found[name] = getattr(value, name)
    return found


def fingerprint(value, seen):
    """A hashable, comparable image of ``value`` and all it holds; ``seen``
    numbers the objects already walked, so a cycle closes on its number, and
    keeps them alive, so that no id is reused during the walk."""
    if isinstance(value, SCALARS):
        return value
    if isinstance(value, OPAQUE):
        return ("opaque", id(value))
    key = id(value)
    if key in seen:
        return ("seen", seen[key][0])
    seen[key] = (len(seen), value)
    if isinstance(value, dict):
        return ("dict", tuple([(fingerprint(k, seen), fingerprint(v, seen))
                               for k, v in value.items()]))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple([fingerprint(x, seen) for x in value]))
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, frozenset([fingerprint(x, seen) for x in value]))
    if isinstance(value, types.FunctionType):
        if not _ours(value):
            return ("function", id(value))
        cells = [cell.cell_contents for cell in value.__closure__ or ()]
        return ("function", id(value), fingerprint(
            (value.__defaults__, value.__kwdefaults__, cells, vars(value)), seen))
    if isinstance(value, type):
        return ("class", id(value), fingerprint(dict(vars(value)), seen) if _ours(value) else None)
    held = dict(getattr(value, "__dict__", {}))
    held.update(_slots(value))
    if hasattr(value, "cache_info"):  # a functools cache keeps its entries out of sight
        held["cache_info"] = tuple(value.cache_info())
    return (type(value).__qualname__, id(value), fingerprint(held, seen))


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "vgroups" or name.startswith("vgroups.")}


def snapshot():
    """Each package global, by (module, name), as (value, fingerprint);
    ``__builtins__`` is the interpreter's, not the package's."""
    return {(name, attr): (value, fingerprint(value, {}))
            for name, module in sorted(_package_modules().items())
            for attr, value in vars(module).items() if attr != "__builtins__"}


def _commands():
    """Every command line command on the shipped documents, both formats."""
    argvs = [["suite", "--suite-level", "smoke"]]
    for fmt in ("text", "json"):
        for doc in OBJECTS:
            argvs += [command + ["--input", str(DOCS / doc), "--format", fmt]
                      for command in OBJECT_COMMANDS]
        argvs += [[command, "--input", str(DOCS / "z4_boolean_morphism.json"),
                   "--morphism", "q", "--format", fmt] for command in MORPHISM_COMMANDS]
    return argvs


def test_a_run_leaves_every_package_global_unchanged():
    for info in pkgutil.iter_modules(vgroups.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"vgroups.{info.name}")
    before = snapshot()
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    for argv in _commands():
        assert run(argv, io.StringIO()) == 0, argv
    after = snapshot()
    assert set(after) == set(before)
    changed = [key for key, (value, image) in before.items()
               if after[key][0] is not value or after[key][1] != image]
    assert changed == []


def test_no_package_global_is_a_file():
    for info in pkgutil.iter_modules(vgroups.__path__):
        if info.name != "__main__":
            importlib.import_module(f"vgroups.{info.name}")
    files = [key for key, (value, _) in snapshot().items() if isinstance(value, io.IOBase)]
    assert files == []


def test_the_fingerprint_sees_a_memo_kept_in_a_global(monkeypatch):
    # an entry added to a dict global, or to a dict that a package class
    # holds, changes the global's fingerprint, and removing it restores it
    from vgroups import cli, groups
    before = snapshot()
    monkeypatch.setitem(cli._COMPUTING, "memo", None)
    monkeypatch.setattr(groups.FiniteGroup, "memo", {}, raising=False)
    held = snapshot()
    groups.FiniteGroup.memo[1] = 2
    after = snapshot()
    assert after.keys() == before.keys()
    changed = {key for key in before if after[key][1] != before[key][1]}
    assert changed == {("vgroups.cli", "_COMPUTING")} | \
        {key for key, (value, _) in before.items() if value is groups.FiniteGroup}
    assert after[("vgroups.groups", "FiniteGroup")][1] != \
        held[("vgroups.groups", "FiniteGroup")][1]
    monkeypatch.undo()
    assert snapshot() == before
