"""A mutation harness for the battery (DeMillo, Lipton and Sayward, "Hints
on test data selection", 1978): every check in ``ALL_CHECKS`` and every
theorem check in torsion.py and factorization.py can fail.

Each mutant rebinds one construction of the package with a plausible
bug, in every ``vgroups`` namespace that holds it (the way
``perfbench/tracer.py`` wraps its targets), builds the smoke suite and
runs the checks its row names.  ``MATRIX`` is the mutant x check matrix:
per mutant, the outcome of each check it runs.  A check is killed when
it records failures, each naming its witness ("fail"); a theorem-check
or structural error raised inside a check is one of them, so no check
raises.  "pass" marks an equivalent mutant.  A row may also name a
frozen output of ``tests/expected/`` (``FROZEN``), killed when its
command prints other bytes: a bug that only renames elements changes no
verdict of the battery.  ``RAISE_SITES`` accounts for each theorem-check
raise: the mutant whose run reaches it, or why no mutant can.  Each
capacity guard of the package is likewise paired with an input that
trips it.
"""

import ast
import importlib
import io
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import vgroups
from vgroups import (battery, cli, descent, factorization, groups, quantale, torsion,
                     vgroup)
from vgroups.builders import standard_suite
from vgroups.document import canonical_json, document_from_vgroup
from vgroups.errors import CapacityError, TheoremCheckError
from vgroups.vgroup import VGroup, VHom
from vgroups.vrel import VRel

MUTANTS = {}


def mutant(target):
    """Register the decorated factory under its name.  ``target`` is a
    package function or a (class, method name) pair; the factory takes
    the original and returns the bug that replaces it."""
    def register(factory):
        MUTANTS[factory.__name__] = (target, factory)
        return factory
    return register


def _shift_last(h):
    """h with its last image moved to the next element of its codomain."""
    mapping = list(h.mapping)
    mapping[-1] = (mapping[-1] + 1) % h.cod.size
    return VHom(h.dom, h.cod, mapping)


def _pullback_combining(original, combine):
    """A pullback whose entries combine the two factors' entries with
    ``combine(q, u, v)`` instead of their meet."""
    def pullback(f, g):
        p, to_x, to_w = original(f, g)
        q, pairs = p.quantale, list(zip(to_x.mapping, to_w.mapping))
        entries = [[combine(q, f.dom.entry(i1, i2), g.dom.entry(j1, j2))
                    for i2, j2 in pairs] for i1, j1 in pairs]
        p = VGroup(p.group, q, VRel(q, entries))
        return p, VHom(p, f.dom, to_x.mapping), VHom(p, g.dom, to_w.mapping)
    return pullback


def _meet_combining(combine):
    """``VRel.meet`` combining entries with ``combine(q, u, v)``."""
    def meet(self, other):
        q = self.quantale
        return VRel(q, [[combine(q, u, v) for u, v in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])
    return meet


@mutant(vgroup.pullback)
def pullback_join(original):
    """The pullback joins the two factors' entries instead of meeting them."""
    return _pullback_combining(original, lambda q, u, v: q.join(u, v))


@mutant(vgroup.pullback_comparison)
def pullback_comparison_shift(original):
    """The comparison into a pullback sends the last element one too far."""
    return lambda *args: _shift_last(original(*args))


@mutant(vgroup.final_structure)
def final_one_value(original):
    """The final structure takes one fibre value instead of the join."""
    def final_structure(g, classes):
        return tuple([tuple([g.entry(c[0], d[0]) for d in classes]) for c in classes])
    return final_structure


@mutant(vgroup.final_structure)
def final_same_class(original):
    """The final structure joins over the row's own class twice."""
    def final_structure(g, classes):
        q = g.quantale
        return tuple([tuple([q.join_all(g.entry(x, y) for x in c for y in c) for _ in classes])
                      for c in classes])
    return final_structure


@mutant(torsion.torsion_members)
def torsion_one_side(original):
    """Torsion membership tests a(e, x) only.  Equivalent on valid objects:
    {x : k <= a(e, x)} is a submonoid of a finite group, hence a subgroup,
    and shift invariance gives k <= a(x, e) from k <= a(e, -x)."""
    def torsion_members(g, elements):
        q, e = g.quantale, g.group.identity
        return tuple(sorted(x for x in elements if q.leq(q.unit, g.entry(e, x))))
    return torsion_members


@mutant(torsion.torsion_members)
def torsion_nonbottom(original):
    """Torsion membership asks for values above bottom, not above the unit."""
    def torsion_members(g, elements):
        q, e = g.quantale, g.group.identity
        return tuple(sorted(x for x in elements
                            if q.bottom not in (g.entry(e, x), g.entry(x, e))))
    return torsion_members


@mutant(torsion.torsion_members)
def torsion_drop_last(original):
    """Torsion membership never tests the last element it is given."""
    return lambda g, elements: original(g, list(elements)[:-1])


@mutant(torsion.torsion_members)
def torsion_ignores_elements(original):
    """Torsion membership scans the whole carrier, not the given elements."""
    return lambda g, elements: original(g, range(g.size))


@mutant(torsion.reflected_map)
def reflected_shift(original):
    """The reflected map sends the last coset one too far."""
    return lambda *args: _shift_last(original(*args))


@mutant(vgroup.factor_through_epi)
def epi_factor_rejects_repeats(original):
    """Factoring through an epi gives up on any second element of a fibre,
    even one with the same image."""
    def factor_through_epi(e, f):
        mapping = [None] * e.cod.size
        for v, y in zip(e.mapping, f.mapping):
            if mapping[v] is not None:
                return None
            mapping[v] = y
        return VHom(e.cod, f.cod, mapping)
    return factor_through_epi


@mutant(vgroup.factor_through_mono)
def mono_factor_shift(original):
    """Factoring through a mono sends the last element one too far."""
    def factor_through_mono(f, m):
        h = original(f, m)
        return None if h is None else _shift_last(h)
    return factor_through_mono


@mutant(groups.group_homs)
def group_homs_drop_last(original):
    """The hom search drops its last mapping."""
    return lambda g, h: original(g, h)[:-1]


@mutant(vgroup.enumerate_structures)
def structures_drop_last(original):
    """The structure enumeration drops its last profile."""
    return lambda group, q: original(group, q)[:-1]


@mutant(vgroup.profile_matrix)
def profile_sum(original):
    """A profile spreads as a(x, y) = delta(y + x) instead of delta(y - x),
    which makes invalid structures."""
    def profile_matrix(group, delta):
        rng = range(group.size)
        return tuple(tuple(delta[group.op(y, x)] for y in rng) for x in rng)
    return profile_matrix


@mutant(quantale.lawvere_chain)
def lawvere_saturates_early(original):
    """The truncated sum saturates one step below bottom: a lawless table."""
    def lawvere_chain(m):
        q = original(m)
        return quantale.Quantale(
            labels=q.labels, leq=q.leq_table,
            tensor=[[min(m - 1, u + v) for v in range(m + 1)] for u in range(m + 1)],
            unit=q.unit, bottom=q.bottom, top=q.top)
    return lawvere_chain


@mutant(vgroup.subobject)
def subobject_by_position(original):
    """A subobject reads the ambient structure at the positions of its
    elements instead of at the elements."""
    def subobject(g, subset):
        obj, inclusion = original(g, subset)
        n = obj.size
        obj = VGroup(obj.group, g.quantale,
                     VRel(g.quantale, [[g.entry(x, y) for y in range(n)]
                                       for x in range(n)]))
        return obj, VHom(obj, g, inclusion.mapping)
    return subobject


@mutant(vgroup.kernel)
def kernel_whole_domain(original):
    """The kernel equalizes f with itself instead of with the zero map."""
    return lambda f: vgroup.equalizer(f, f)


@mutant(vgroup.is_final)
def regular_epi_without_finality(original):
    """Every surjection counts as a regular epi: finality is not tested."""
    return lambda f: True


@mutant((VRel, "meet"))
def meet_tensor(original):
    """The symmetric part takes a (x) a-converse instead of the meet."""
    return _meet_combining(lambda q, u, v: q.tensor(u, v))


@mutant((VRel, "meet"))
def meet_join(original):
    """The symmetric part takes a join a-converse instead of the meet."""
    return _meet_combining(lambda q, u, v: q.join(u, v))


@mutant(torsion._is_null_structure)
def null_skips_symmetry(original):
    """The null class forgets to ask for symmetry."""
    def _is_null_structure(q, a):
        return all(x == y or not q.leq(q.unit, v)
                   for x, row in enumerate(a) for y, v in enumerate(row))
    return _is_null_structure


@mutant((descent.IntegerIndexedCover, "window_matrix"))
def window_level_shift(original):
    """The window rows of each level are those of the level above."""
    def window_matrix(self, radius):
        rows = original(self, radius)
        n = self.base.size
        return rows[n:] + rows[-n:]
    return window_matrix


@mutant((descent, "pair_meets"))
def kernel_pair_first_projection(original):
    """Each kernel-pair entry, the meet of the window with itself, is the
    first window value, with no meet with the second."""
    def pair_meets(q, a, b, pairs):
        if b is not a:  # the action carrier
            return original(q, a, b, pairs)
        return tuple(tuple(a[i1][i2] for i2, _ in pairs) for i1, _ in pairs)
    return pair_meets


def _keyed_by(derived, build, short):
    """``ClassCache.derived`` with the entries of ``build`` stored under
    ``short(*key)``: the first key of each short key is built, and every
    later one takes its value."""
    def keyed(self, given, *key):
        if given is not build:
            return derived(self, given, *key)
        entries, at = self.store[build], short(*key)
        if at not in entries:
            entries[at] = build(self, *key)
        return entries[at]
    return keyed


@mutant((factorization.ClassCache, "derived"))
def cache_key_no_mapping(original):
    """Class reports are keyed by their endpoints only, so morphisms between
    the same objects share the first one's flags."""
    return _keyed_by(original, factorization._class_report, lambda f: (f.dom, f.cod))


@mutant((factorization.ClassCache, "intern"))
def group_pool_by_table(original):
    """The object pool keys an object by its group table and structure
    alone, with the element names dropped, so a stored object whose table
    and structure a pooled one shares takes that object, under its names."""
    return lambda self, g: self.objects.setdefault((g.group.table, g.structure), g)


@mutant((factorization.ClassCache, "derived"))
def kernel_class_by_domain(original):
    """Kernel classes are keyed by the domain only, so morphisms out of one
    object share the first one's kernel class."""
    return _keyed_by(original, torsion.kernel_class, lambda dom, members: dom)


@mutant((factorization.ClassCache, "derived"))
def square_key_drops_codomain(original):
    """Naturality squares are keyed by the reflected map's domain and mapping
    only, so morphisms into codomains with one such reflected map share the
    first one's square, and its legs end at the first codomain."""
    return _keyed_by(original, factorization._square,
                     lambda cod, reflected_dom, mapping: (reflected_dom, mapping))


@mutant((factorization.ClassCache, "derived"))
def stabilized_quotient_by_domain(original):
    """Stabilized quotients are keyed by the domain only, so morphisms out
    of one object split through the first one's quotient, whatever the
    torsion part of their kernels."""
    return _keyed_by(original, factorization._stabilized_quotient,
                     lambda dom, members: dom)


@mutant((factorization.ClassCache, "derived"))
def spot_check_by_test_object(original):
    """Null spot checks are keyed by their symmetric test object only, so
    each pair out of one test object takes the first pair's count."""
    return _keyed_by(original, torsion._null_spot_check, lambda t, f_obj: t)


@mutant((factorization.ClassCache, "derived"))
def null_decision_by_domain(original):
    """Null verdicts are keyed by the domain only, so homomorphisms out of
    one object take the first one's verdict, whatever their kernel."""
    return _keyed_by(original, torsion._null_image, lambda dom, members: dom)


FAIL, PASS = "fail", "pass"

# The frozen outputs a MATRIX row may name, each with the command that
# prints it.
FROZEN = {
    "expected/factorize_q.json": [
        "factorize", "--input",
        str(Path(__file__).parent.parent / "documents" / "z4_boolean_morphism.json"),
        "--morphism", "q", "--format", "json"],
    "expected/pretorsion_z4_lawvere.json": [
        "pretorsion", "--input",
        str(Path(__file__).parent.parent / "documents" / "z4_lawvere.json"),
        "--format", "json"],
}

MATRIX = {
    "pullback_join": {"check_factorizations": FAIL},
    "pullback_comparison_shift": {"check_ses_morphism_pullback": FAIL,
                                  "check_factorizations": FAIL},
    "final_one_value": {"check_kernel_cokernel_roundtrips": FAIL},
    "final_same_class": {"check_kernel_cokernel_roundtrips": FAIL,
                         "check_regular_epi_stability": FAIL,
                         "check_torsion_theory": FAIL, "check_pretorsion": FAIL},
    "torsion_one_side": {"check_torsion_theory": PASS, "check_pretorsion": PASS},
    "torsion_nonbottom": {"check_torsion_theory": FAIL},
    "torsion_drop_last": {"check_torsion_theory": FAIL, "check_pretorsion": FAIL},
    "torsion_ignores_elements": {"check_factorizations": FAIL},
    "reflected_shift": {"check_morphism_classification": FAIL,
                        "check_stable_class_pullbacks": FAIL},
    "epi_factor_rejects_repeats": {"check_kernel_cokernel_roundtrips": FAIL,
                                   "check_morphism_classification": FAIL},
    "mono_factor_shift": {"check_kernel_cokernel_roundtrips": FAIL,
                          "check_image_factorization": FAIL},
    "group_homs_drop_last": {"check_torsion_theory": FAIL, "check_pretorsion": FAIL},
    "structures_drop_last": {"check_structure_routes": FAIL},
    "profile_sum": {"check_structure_routes": FAIL, "check_objects": FAIL},
    "lawvere_saturates_early": {"check_quantale_laws": FAIL},
    "subobject_by_position": {"check_kernel_cokernel_roundtrips": FAIL,
                              "check_torsion_theory": FAIL},
    "kernel_whole_domain": {"check_morphism_classification": FAIL,
                            "check_factorizations": FAIL},
    "regular_epi_without_finality": {"check_kernel_cokernel_roundtrips": FAIL,
                                     "check_image_factorization": FAIL,
                                     "check_morphism_classification": FAIL},
    "meet_tensor": {"check_pretorsion": FAIL},
    "meet_join": {"check_pretorsion": FAIL},
    "null_skips_symmetry": {"check_pretorsion": FAIL},
    "window_level_shift": {"check_descent_windows": FAIL},
    # pairs that differ in the second level alone become top both ways
    "kernel_pair_first_projection": {"check_descent_windows": FAIL},
    "cache_key_no_mapping": {"check_factorizations": FAIL},
    "kernel_class_by_domain": {"check_morphism_classification": FAIL},
    "square_key_drops_codomain": {"check_morphism_classification": FAIL,
                                  "check_factorizations": FAIL,
                                  "check_stable_class_pullbacks": FAIL},
    # Stored ends lose their element names to an earlier object with the
    # same table and structure, so legs stop composing; on the shipped map
    # q the command exits 2.
    "group_pool_by_table": {"check_factorizations": FAIL,
                            "expected/factorize_q.json": FAIL},
    "stabilized_quotient_by_domain": {"check_factorizations": FAIL},
    # Every spot check passes, so no check fails; the command prints the
    # wrong null_spot_checks count.
    "spot_check_by_test_object": {"expected/pretorsion_z4_lawvere.json": FAIL},
    # a composite out of a test object takes the verdict of the first one
    # decided there, so non-null composites count as null and find no
    # factorization through the candidate kernel
    "null_decision_by_domain": {"check_pretorsion": FAIL,
                                "expected/pretorsion_z4_lawvere.json": FAIL},
}


def _non_normal_torsion():
    """S3 over the boolean quantale with a(x, y) = top iff y - x lies in a
    subgroup of order 2, which is not normal: not a valid structure."""
    s3, q = groups.FiniteGroup.symmetric3(), quantale.boolean()
    e = s3.identity
    s = next(x for x in range(s3.size) if x != e and s3.op(x, x) == e)
    return vgroup.structure_from_delta(
        s3, q, [q.top if x in (e, s) else q.bottom for x in range(s3.size)])


def _indiscrete_to_discrete():
    """The identity of Z2 from the indiscrete to the discrete boolean
    structure: a group hom that is not compatible."""
    z2, q = groups.FiniteGroup.cyclic(2), quantale.boolean()
    return VHom(vgroup.indiscrete_vgroup(z2, q), vgroup.discrete_vgroup(z2, q), [0, 1])


def _irreflexive():
    """Z2 over the boolean quantale with bottom at (1, 1): not reflexive."""
    q = quantale.boolean()
    return VGroup(groups.FiniteGroup.cyclic(2), q,
                  VRel(q, [[q.top, q.bottom], [q.bottom, q.bottom]]))


# Each TheoremCheckError raise in torsion.py and factorization.py, by its
# message with the interpolated values written {}: the mutant whose run
# reaches it, or, for an input guard, a call that reaches it through the
# Python API.  The guards hold on every valid input over a lawful
# quantale, which is all the command line accepts.
RAISE_SITES = {
    "torsion part of {} is not a subgroup": "torsion_drop_last",
    "torsion part of {} is not normal, witness {}":
        lambda: torsion.decompose(_non_normal_torsion()),
    "kernel structure equation failed for {}": "subobject_by_position",
    "cokernel structure equation failed for {}": "final_same_class",
    "torsion part of {} is not indiscrete": "torsion_nonbottom",
    "torsion-free quotient of {} is not separated": "torsion_drop_last",
    "homomorphism {} does not induce a map between the separated quotients":
        "epi_factor_rejects_repeats",
    # the battery never restricts a map to the torsion parts
    "homomorphism {} does not restrict to the torsion parts":
        lambda: torsion.coreflect_morphism(_indiscrete_to_discrete()),
    "symmetrized structure of {} failed validation":
        lambda: torsion.symmetric_coreflect(_irreflexive()),
    "pretorsion quotient of {} is not separated": "torsion_drop_last",
    "pretorsion sequence of {} failed a relative universal property: {}":
        "group_homs_drop_last",
    "found a non-null morphism {} from a symmetric object {} to a separated one {}":
        "final_same_class",
    "left-class routes disagree for {}: definitional={} characterization={}":
        "regular_epi_without_finality",
    "right-class routes disagree for {}: definitional={} characterization={}":
        "pullback_join",
    "{} is stably inverted but not inverted by the reflector":
        "regular_epi_without_finality",
    "{} is a trivial covering but not a covering": "kernel_whole_domain",
    "reflective factorization of {} produced an invalid leg":
        "pullback_comparison_shift",
    "left leg {} of {} is not inverted by the reflector": "pullback_join",
    "torsion part of the kernel of {} is not normal in the domain, witness {}":
        lambda: factorization.monotone_light_factorize(vgroup.zero_hom(
            _non_normal_torsion(), vgroup.trivial_vgroup(quantale.boolean()))),
    "stabilized factorization of {} has no induced right leg":
        "torsion_ignores_elements",
    "stabilized factorization of {} produced an invalid leg":
        lambda: factorization.monotone_light_factorize(_indiscrete_to_discrete()),
    "left leg {} of {} is not a normal epi with indiscrete kernel": "kernel_whole_domain",
}


def _install(monkeypatch, name):
    """Put mutant ``name`` in place until the test ends."""
    target, factory = MUTANTS[name]
    if isinstance(target, tuple):
        cls, attr = target
        monkeypatch.setattr(cls, attr, factory(getattr(cls, attr)))
        return
    replacement = factory(target)
    for module_name, module in list(sys.modules.items()):
        if module_name == "vgroups" or module_name.startswith("vgroups."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, replacement)


def _site_pattern(site):
    """A regex for the messages of a raise site; no word character or
    hyphen may precede it, so a kernel site does not match a cokernel one."""
    return re.compile(r"(?<![\w-])" + re.escape(site).replace(r"\{\}", ".*"))


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_mutant_outcomes(monkeypatch, name):
    _install(monkeypatch, name)
    suite = standard_suite("smoke")
    outcomes, messages = {}, []
    for check in battery.ALL_CHECKS:
        if check.__name__ not in MATRIX[name]:
            continue
        result = check(suite)
        outcomes[check.__name__] = FAIL if result.failures else PASS
        assert result.ok == (not result.failures)
        messages.extend(str(failure) for failure in result.failures)
    for frozen, argv in FROZEN.items():
        if frozen in MATRIX[name]:
            out = io.StringIO()
            printed = cli.run(argv, out) == 0 and out.getvalue() == \
                (Path(__file__).parent / frozen).read_text(encoding="utf-8")
            outcomes[frozen] = PASS if printed else FAIL
    assert outcomes == MATRIX[name]
    for site, reached_by in RAISE_SITES.items():
        if reached_by == name:
            assert any(_site_pattern(site).search(m) for m in messages), site


def test_every_check_is_killed():
    assert set(MATRIX) == set(MUTANTS)
    killed = {check for row in MATRIX.values()
              for check, outcome in row.items() if outcome == FAIL}
    assert killed - set(FROZEN) == {check.__name__ for check in battery.ALL_CHECKS}


@pytest.mark.parametrize("name", ["reflected_shift", "epi_factor_rejects_repeats"])
def test_suite_command_reports_a_failing_battery(monkeypatch, name):
    # the first makes pair_group raise a structural error inside checks, the
    # second leaves check_ses_morphism_pullback without its quotient map
    _install(monkeypatch, name)
    out = io.StringIO()
    assert cli.run(["suite", "--suite-level", "smoke", "--format", "json"], out) == 1
    assert json.loads(out.getvalue())["ok"] is False


def _raise_sites(module, error):
    """The message of each ``raise error(...)`` in ``module``, with its
    interpolated values written {}."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and \
                getattr(node.exc.func, "id", None) == error:
            message = node.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            sites.append("".join(part.value if isinstance(part, ast.Constant) else "{}"
                                 for part in parts))
    return sites


def test_every_theorem_check_raise_is_accounted_for():
    sites = _raise_sites(torsion, "TheoremCheckError") + \
        _raise_sites(factorization, "TheoremCheckError")
    assert sorted(sites) == sorted(RAISE_SITES)
    for reached_by in RAISE_SITES.values():
        assert reached_by in MATRIX or callable(reached_by)


@pytest.mark.parametrize("site", [site for site, reached_by in RAISE_SITES.items()
                                  if callable(reached_by)])
def test_input_guard_fires_on_an_invalid_input(site):
    with pytest.raises(TheoremCheckError) as raised:
        RAISE_SITES[site]()
    assert _site_pattern(site).search(str(raised.value))


def _elementary_abelian(rank):
    """(Z2)^rank: a group that needs all ``rank`` of its generators."""
    group = groups.FiniteGroup.trivial()
    for _ in range(rank):
        group = groups.FiniteGroup.direct_product(group, groups.FiniteGroup.cyclic(2))
    return group


def test_every_capacity_guard_is_reachable(tmp_path, capsys):
    """Each ``raise CapacityError`` in the package, by its message with the
    interpolated values written {}, fires on an input that reaches it: a
    command line, which then exits 3, or a call through the Python API."""
    q = quantale.boolean()

    def command(name, value, *argv):
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(document_from_vgroup(value, {"builtin": "boolean"})),
                        encoding="utf-8")
        return [argv[0], "--input", str(path), *argv[1:]]

    z2_5 = vgroup.discrete_vgroup(_elementary_abelian(5), q)
    z40 = vgroup.discrete_vgroup(groups.FiniteGroup.cyclic(40), q)
    point = vgroup.trivial_vgroup(q)
    reach = {
        "builtin chain length {} exceeds the cap of {}": [
            lambda: quantale.builtin_quantale("lawvere_chain", quantale.BUILTIN_CHAIN_CAP + 1)],
        # a window of 49 elements, then 9 * 40 = 360 acting arrows of the
        # covering Z40 -> 1
        "a {} of {} elements exceeds the cap of {}": [
            command("z1", point, "descent", "--window", "24"),
            lambda: descent.action_of_covering(
                VHom(z40, point, [0] * z40.size), descent.descent_cover(point)[0], 1)],
        "{} candidate subsets exceed the cap of {}": [
            lambda: groups.FiniteGroup.cyclic(20).all_subgroups()],
        "{} generator image choices exceed the cap of {}": [
            lambda: vgroup.enumerate_homs(
                z2_5, vgroup.discrete_vgroup(_elementary_abelian(4), q))],
        "{} candidate profiles exceed the cap of {}": [
            lambda: vgroup.enumerate_structures(groups.FiniteGroup.cyclic(20), q)],
        "universal-property quantification needs {} candidates, over the cap of {}": [
            command("z2_5", z2_5, "pretorsion")],
    }
    modules = [importlib.import_module(f"vgroups.{info.name}")
               for info in pkgutil.iter_modules(vgroups.__path__)
               if info.name != "__main__"]  # importing it runs the command line
    sites = [site for module in modules for site in _raise_sites(module, "CapacityError")]
    assert sorted(sites) == sorted(reach)
    for site, inputs in reach.items():
        for given in inputs:
            if callable(given):
                with pytest.raises(CapacityError) as raised:
                    given()
                message = str(raised.value)
            else:
                assert cli.run(given, io.StringIO()) == cli.CAPACITY, given
                message = capsys.readouterr().err
            assert _site_pattern(site).search(message), (site, message)
