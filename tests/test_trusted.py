"""Audit of the trusted constructors.

``pair_group``, ``subgroup_group`` and ``quotient_group`` build their
groups through ``FiniteGroup._trusted``, and the derived maps and
relations of vgroup.py, the zero map, the legs that ``ClassCache.leg``
moves onto a run's stored objects, and the composites, converses and
function graphs of vrel.py go through ``VHom._trusted`` and
``VRel._trusted``.  None of the three re-checks what it stores.  Each
test runs the smoke battery, the work of ``vgroups suite --suite-level
smoke``, with one trusted constructor recording what it builds and where.
It then rebuilds every distinct output through the checking constructor
and requires each stored field to come out equal, which also pins the
stored rows and mappings to tuples.  The size each group and object
stores at construction, which ``FiniteGroup._trusted`` sets apart from
``__init__``, is audited the same way.
"""

import sys

import pytest

from vgroups import FiniteGroup, VGroup, VHom, VRel, battery
from vgroups.builders import standard_suite

# The functions that call each trusted constructor.
SITES = {
    FiniteGroup: {"pair_group", "subgroup_group", "quotient_group"},
    VHom: {"then", "pullback", "pullback_comparison", "factor_through_mono",
           "factor_through_epi", "subobject", "quotient_vgroup",
           "image_factorize", "enumerate_homs", "zero_hom", "leg"},
    VRel: {"pullback", "subobject", "quotient_vgroup", "image_factorize",
           "then", "converse", "from_function"},
}


def _fields(x):
    if isinstance(x, FiniteGroup):
        return (x.table, x.names, x.identity, x.inverse)
    if isinstance(x, VHom):
        return (x.dom, x.cod, x.mapping)
    return (x.quantale, x.entries)


def _checked(x):
    """x rebuilt through its checking constructor."""
    if isinstance(x, FiniteGroup):
        return FiniteGroup(x.table, x.names)
    if isinstance(x, VHom):
        return VHom(x.dom, x.cod, x.mapping)
    return VRel(x.quantale, x.entries)


def _caller():
    """The function that called the trusted constructor, past any
    comprehension frame."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def _record(monkeypatch, cls):
    """Make ``cls._trusted`` keep the fields of each distinct output, by
    calling function."""
    built = {}
    original = cls.__dict__["_trusted"].__func__

    def trusted(klass, *args, **kwargs):
        out = original(klass, *args, **kwargs)
        built.setdefault(_caller(), {}).setdefault(_fields(out), out)
        return out

    monkeypatch.setattr(cls, "_trusted", classmethod(trusted))
    return built


@pytest.mark.parametrize("cls", list(SITES), ids=lambda cls: cls.__name__)
def test_trusted_outputs_pass_the_checking_constructor(monkeypatch, cls):
    built = _record(monkeypatch, cls)
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    assert set(built) == SITES[cls]
    for site, outputs in built.items():
        for fields, out in outputs.items():
            assert _fields(_checked(out)) == fields, (site, out)


def test_every_group_and_object_stores_its_size(monkeypatch):
    """After a smoke run, each group, checked or trusted, has
    ``size == len(table)``, and each object ``size == group.size``."""
    built = []
    for cls in (FiniteGroup, VGroup):
        def keep(self, *args, init=cls.__init__, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", keep)
    trusted = _record(monkeypatch, FiniteGroup)
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    groups = [g for g in built if isinstance(g, FiniteGroup)]
    groups += [g for outputs in trusted.values() for g in outputs.values()]
    objects = [g for g in built if isinstance(g, VGroup)]
    assert groups and objects and set(trusted) == SITES[FiniteGroup]
    assert all(g.size == len(g.table) for g in groups)
    assert all(g.size == g.group.size for g in objects)
