"""Canonical object and morphism suites feeding the property batteries.

Generation is pure and deterministic: the quantales and groups of a
``SUITE_LEVELS`` entry in its order, structures in lexicographic
profile order, homomorphisms in lexicographic mapping order.  In suite
order, a hom-set A -> B is enumerated if |B|^|A| (a coverage rule, not
the search's cost, which is ``groups.hom_search_size``) fits in what is
left of the total budget, and marked truncated otherwise (20,309 of
22,959 at full, none at smoke).  Each hom-set is a ``HomSet``, an
immutable named tuple built positionally, so the full level's 22,959
records, most of them empty truncated ones, cost a tuple each.
"""

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .groups import FiniteGroup
from .quantale import builtin_quantale
from .torsion import ClassCache
from .vgroup import enumerate_homs, enumerate_structures

TOTAL_HOM_BUDGET = 2_000_000


def group_roster():
    """Every group constructor the suites draw from, by name."""
    return {
        "Z1": FiniteGroup.trivial(),
        "Z2": FiniteGroup.cyclic(2),
        "Z3": FiniteGroup.cyclic(3),
        "Z4": FiniteGroup.cyclic(4),
        "Z5": FiniteGroup.cyclic(5),
        "Z6": FiniteGroup.cyclic(6),
        "Z2xZ2": FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                            FiniteGroup.cyclic(2)),
        "S3": FiniteGroup.symmetric3(),
    }


class Level(NamedTuple):
    """A level of ``SUITE_LEVELS``, the one table of what each covers: its
    quantales as (name, builtin document spec) pairs, each built and
    exported from its spec, and its ``group_roster`` names, in suite order."""
    quantales: tuple
    groups: tuple


_SMOKE = Level(quantales=(("boolean", {"builtin": "boolean"}),
                          ("lawvere_chain_2", {"builtin": "lawvere_chain", "m": 2})),
               groups=("Z1", "Z2", "Z3", "Z4"))
SUITE_LEVELS = MappingProxyType({"smoke": _SMOKE, "full": Level(
    quantales=_SMOKE.quantales + (
        ("ultrametric_chain_3", {"builtin": "ultrametric_chain", "m": 3}),
        ("lawvere_chain_3", {"builtin": "lawvere_chain", "m": 3})),
    groups=_SMOKE.groups + ("Z2xZ2", "Z5", "S3"))})


@dataclass(frozen=True)
class SuiteObject:
    name: str
    quantale_name: str
    group_name: str
    vgroup: object


class HomSet(NamedTuple):
    """The morphisms from object ``dom`` to object ``cod`` (suite indices),
    in ``enumerate_homs`` order, with the |cod|^|dom| ``candidates`` the
    budget charged; a ``truncated`` one was not enumerated and holds none.
    Immutable: a named tuple, which refuses attribute assignment."""
    dom: int
    cod: int
    homs: tuple
    truncated: bool
    candidates: int


@dataclass
class Suite:
    level: str
    quantales: list
    groups: list
    objects: list
    hom_sets: list
    # What the checks of one run derive, shared by all of them.
    cache: ClassCache = field(default_factory=ClassCache, compare=False,
                              repr=False)

    @cached_property
    def _hom_set_at(self):
        # The enumerated hom-sets only (2,650 of 22,959 at full, 0.1 MB),
        # built on first lookup, so that a suite that is never queried does
        # not pay for the index.
        return {(hs.dom, hs.cod): hs for hs in self.hom_sets if not hs.truncated}

    @cached_property
    def _structures_at(self):
        at = {}
        for obj in self.objects:
            at.setdefault((obj.quantale_name, obj.group_name), []).append(obj.vgroup)
        return at

    def structures_on(self, quantale_name, group_name):
        """The suite's objects on the named quantale and group, in suite
        order.  ``standard_suite`` holds every structure
        ``enumerate_structures`` gives on each of its (quantale, group)
        pairs, in that order, so on its suites this is that enumeration;
        the test suite checks this at both levels."""
        return self._structures_at.get((quantale_name, group_name), [])

    def objects_over(self, quantale_name):
        return [o for o in self.objects if o.quantale_name == quantale_name]

    def homs_between(self, i, j):
        """The enumerated hom-set from object i to object j, or None when
        the two lie over different quantales or the hom-set is truncated."""
        return self._hom_set_at.get((i, j))

    def all_homs(self):
        """Every enumerated morphism with its endpoint objects."""
        return [(self.objects[hs.dom], self.objects[hs.cod], h)
                for hs in self.hom_sets if not hs.truncated for h in hs.homs]

    def export_documents(self):
        """Every suite object as a workbench document value, keyed by name."""
        from .document import document_from_vgroup
        specs = dict(SUITE_LEVELS[self.level].quantales)
        return {obj.name: document_from_vgroup(obj.vgroup, specs[obj.quantale_name])
                for obj in self.objects}


def standard_suite(level="smoke"):
    """Every structure on each (quantale, group) pair of ``SUITE_LEVELS[level]``."""
    if not isinstance(level, str) or level not in SUITE_LEVELS:
        raise ValueError(f"unknown suite level: {level!r}")
    roster = group_roster()
    chosen = SUITE_LEVELS[level]
    quantales = [(name, builtin_quantale(spec["builtin"], spec.get("m")))
                 for name, spec in chosen.quantales]
    groups = [(name, roster[name]) for name in chosen.groups]

    objects = []
    for qname, q in quantales:
        for gname, grp in groups:
            for vg in enumerate_structures(grp, q):
                delta = ",".join(q.label(v) for v in vg.delta())
                name = f"{qname}/{gname}/{delta}"
                vg.name = name
                objects.append(SuiteObject(name=name, quantale_name=qname,
                                           group_name=gname, vgroup=vg))

    # Hom-sets pair objects over one quantale only, and each quantale's
    # objects are contiguous in suite order, so walking each quantale's
    # (index, object, size) triples pair by pair keeps the (i, j) order.
    hom_sets = []
    budget = TOTAL_HOM_BUDGET
    for qname, _ in quantales:
        over = [(i, obj.vgroup, obj.vgroup.size) for i, obj in enumerate(objects)
                if obj.quantale_name == qname]
        for i, a, a_size in over:
            for j, b, b_size in over:
                candidates = b_size ** a_size
                if candidates > budget:
                    hom_sets.append(HomSet(i, j, (), True, candidates))
                    continue
                budget -= candidates
                hom_sets.append(HomSet(i, j, tuple(enumerate_homs(a, b)),
                                       False, candidates))

    return Suite(level=level, quantales=quantales, groups=groups,
                 objects=objects, hom_sets=hom_sets)
