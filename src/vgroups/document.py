"""The workbench file format: UTF-8 JSON documents holding a quantale, a
group, a structure matrix and optional named morphisms.

Quantale and group elements are referenced by string label, with an
explicit ordering array, so documents are diff-friendly.  Entries may
also be given as integer indices; an integral float such as 1.0, which
JSON Schema's ``integer`` admits, is read as the integer it equals, here
and in a builtin chain length ``m``.  The canonical emitted form always
uses labels, sorted keys and two-space indentation, and a document
already in canonical form round-trips byte-identically through parse
then emit.

A morphism's target is either a path to another document (resolved
relative to the referencing file; its quantale must coincide) or an
inline object sharing the document's quantale.

Every document is checked against the shipped schema on every parse.
The schema is compiled once, at import, into one predicate that decides
acceptance; jsonschema runs only on a rejected document, to name the
failing keyword and place.  The compiler knows the keywords the schema
uses and raises on any other, so a schema edit it does not cover fails
at import instead of being skipped.  The schema itself is constant and
is checked against its metaschema by the test suite, not at run time.
"""

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import StructuralError
from .groups import FiniteGroup
from .quantale import Quantale, builtin_quantale
from .vgroup import VGroup, VHom
from .vrel import VRel

SCHEMA = json.loads(resources.files("vgroups.data")
                    .joinpath("workbench.schema.json").read_text(encoding="utf-8"))

_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# Draft 2020-12 types by name; "integer" also admits integral floats.
_TYPE_CLASSES = {"object": dict, "array": list, "string": str, "boolean": bool}
_KEYWORDS = frozenset({"type", "enum", "minimum", "minItems", "items", "required",
                       "properties", "additionalProperties", "oneOf", "$ref"})
_ANNOTATIONS = frozenset({"title", "description"})
_ROOT_ONLY = frozenset({"$schema", "$defs"})
_REF_PREFIX = "#/$defs/"


def _is_integer(v):
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _all_of(checks):
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for c in checks:
            if not c(v):
                return False
        return True
    return check


def _compile(schema):
    """One predicate on JSON values equal to Draft 2020-12 validity under
    ``schema``: ``_compile(s)(v) == Draft202012Validator(s).is_valid(v)``.

    It covers the keywords the shipped schema uses and no more: ``type``
    (object, array, string, boolean, integer), ``required``,
    ``properties``, ``additionalProperties: false``, ``items`` and
    ``minItems``, ``minimum``, a string ``enum``, ``oneOf`` and a
    ``$ref`` into the root's ``$defs``.  Any other keyword or form raises
    ValueError, so that no part of a schema is ignored.
    """
    defs = {}

    def fail(what, node):
        raise ValueError(f"schema acceptor does not cover {what}: {node!r}")

    def node(s, root=False):
        if not isinstance(s, dict):
            fail("a non-object schema", s)
        allowed = _ANNOTATIONS | _KEYWORDS | (_ROOT_ONLY if root else frozenset())
        for key in s.keys() - allowed:
            fail(f"the keyword {key!r}", s)
        checks = []
        if "type" in s:
            checks.append(type_check(s["type"]))
        if "enum" in s:
            members = s["enum"]
            if not isinstance(members, list) or \
                    not all(isinstance(m, str) for m in members):
                fail("an enum with a member that is not a string", members)
            members = frozenset(members)
            checks.append(lambda v: isinstance(v, str) and v in members)
        if "minimum" in s:
            low = s["minimum"]
            if not _is_number(low):
                fail("a minimum that is not a number", low)
            checks.append(lambda v: not _is_number(v) or not v < low)
        if "minItems" in s:
            least = s["minItems"]
            if not isinstance(least, int) or isinstance(least, bool) or least < 0:
                fail("a minItems that is not a count", least)
            checks.append(lambda v: not isinstance(v, list) or len(v) >= least)
        if "items" in s:
            item = node(s["items"])
            checks.append(lambda v: not isinstance(v, list) or all(map(item, v)))
        if s.keys() & {"required", "properties", "additionalProperties"}:
            checks.append(object_check(s))
        if "oneOf" in s:
            if not isinstance(s["oneOf"], list) or not s["oneOf"]:
                fail("a oneOf that is not a nonempty list", s["oneOf"])
            branches = [node(b) for b in s["oneOf"]]
            checks.append(lambda v: sum(b(v) for b in branches) == 1)
        if "$ref" in s:
            ref = s["$ref"]
            name = ref[len(_REF_PREFIX):] if isinstance(ref, str) and \
                ref.startswith(_REF_PREFIX) else None
            if name is None or "/" in name or "~" in name or \
                    name not in schema.get("$defs", {}):
                fail("a $ref that is not a name in the root's $defs", ref)
            checks.append(lambda v: defs[name](v))
        return _all_of(checks)

    def type_check(types):
        names = [types] if isinstance(types, str) else types
        if not isinstance(names, list) or not names or \
                not all(n in _TYPE_CLASSES or n == "integer" for n in names):
            fail("a type", types)
        classes = tuple(_TYPE_CLASSES[n] for n in names if n != "integer")
        if "integer" in names:
            return lambda v: isinstance(v, classes) or _is_integer(v)
        return lambda v: isinstance(v, classes)

    def object_check(s):
        required = s.get("required", [])
        properties = s.get("properties", {})
        if not isinstance(required, list) or \
                not all(isinstance(k, str) for k in required):
            fail("a required that is not a list of names", required)
        if not isinstance(properties, dict):
            fail("a properties that is not an object", properties)
        if s.get("additionalProperties", False) is not False:
            fail("an additionalProperties other than false", s["additionalProperties"])
        closed = "additionalProperties" in s
        props = {k: node(sub) for k, sub in properties.items()}

        def check(v):
            if not isinstance(v, dict):
                return True
            for k in required:
                if k not in v:
                    return False
            for k, x in v.items():
                c = props.get(k)
                if c is None:
                    if closed:
                        return False
                elif not c(x):
                    return False
            return True
        return check

    if not isinstance(schema, dict) or not isinstance(schema.get("$defs", {}), dict):
        fail("a root that is not an object with an object $defs", schema)
    accepts = node(schema, root=True)
    for name, sub in schema.get("$defs", {}).items():
        defs[name] = node(sub)
    return accepts


_accepts = _compile(SCHEMA)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@dataclass
class WorkbenchDocument:
    quantale: Quantale
    vgroup: VGroup
    morphisms: list = field(default_factory=list)  # list of VHom, named
    quantale_spec: dict = field(default_factory=dict)
    morphism_specs: list = field(default_factory=list)

    def morphism(self, name):
        for hom in self.morphisms:
            if hom.name == name:
                return hom
        raise StructuralError(f"document has no morphism named {name!r}")


def _integral(value):
    """An integral float as the int it equals, as Draft 2020-12's
    ``integer`` reads it; any other value unchanged."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _label_index(labels):
    """Each label's first position, as ``list.index`` finds it."""
    index = {}
    for i, label in enumerate(labels):
        index.setdefault(label, i)
    return index


def _resolve(value, labels, index, what):
    """One entry as an index into ``labels``, whose ``_label_index`` is
    ``index``: a label, an index in range or an integral float."""
    if isinstance(value, bool):
        raise StructuralError(f"{what} entry must be a label or index, not a boolean")
    value = _integral(value)
    if isinstance(value, int):
        if not 0 <= value < len(labels):
            raise StructuralError(f"{what} index out of range: {value}")
        return value
    found = index.get(str(value))
    if found is None:
        raise StructuralError(f"unknown {what} label: {value!r}")
    return found


def _resolve_rows(rows, labels, what):
    """Each row's entries as ``_resolve`` reads them, in row-major order,
    through one label index for all of them."""
    index = _label_index(labels)
    return [[_resolve(v, labels, index, what) for v in row] for row in rows]


def _parse_quantale(spec):
    if "builtin" in spec:
        kind = spec["builtin"]
        return builtin_quantale(kind, _integral(spec.get("m")))
    labels = [str(x) for x in spec["elements"]]
    tensor = _resolve_rows(spec["tensor"], labels, "quantale")
    unit, bottom, top = _resolve_rows(
        [[spec["unit"], spec["bottom"], spec["top"]]], labels, "quantale")[0]
    return Quantale(labels=labels, leq=spec["leq"], tensor=tensor,
                    unit=unit, bottom=bottom, top=top)


def _parse_group(spec):
    names = [str(x) for x in spec["elements"]]
    return FiniteGroup(_resolve_rows(spec["table"], names, "group"), names=names)


def _parse_object(group_spec, structure_spec, quantale):
    group = _parse_group(group_spec)
    if len(structure_spec) != group.size or \
            any(len(row) != group.size for row in structure_spec):
        raise StructuralError("structure matrix must be square, one row per element")
    entries = _resolve_rows(structure_spec, quantale.labels, "quantale")
    return VGroup(group, quantale, VRel(quantale, entries))


def parse_document(data, base_dir=None, loading=()):
    """Build the in-memory objects from a parsed JSON value.

    Cross-references and index ranges are checked here; algebraic laws
    are not (run the validators for those).  ``loading`` holds the paths
    of the documents that reference this one, outermost first, so that
    ``load_document`` reports a reference cycle instead of following it.
    """
    if not _accepts(data):
        try:
            # the error jsonschema.validate would raise
            error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
        except RecursionError as exc:
            raise StructuralError("document is nested too deeply to check") from exc
        if error is None:
            raise StructuralError(
                "the schema acceptor rejects a document that jsonschema accepts")
        # jsonschema's message quotes the offending value, of any size
        raise StructuralError(
            "document does not match the schema: "
            f"{error.validator!r} fails at {error.json_path}") from error
    quantale = _parse_quantale(data["quantale"])
    vg = _parse_object(data["group"], data["structure"], quantale)
    morphisms = []
    for spec in data.get("morphisms", ()):
        if any(hom.name == spec["name"] for hom in morphisms):
            raise StructuralError(f"morphism {spec['name']!r} is named twice")
        target = spec["target"]
        if isinstance(target, str):
            if base_dir is None:
                raise StructuralError(
                    f"morphism {spec['name']!r} references a file but no base "
                    "directory is known")
            ref = load_document(Path(base_dir) / target, loading)
            if ref.quantale != quantale:
                raise StructuralError(
                    f"morphism {spec['name']!r}: target document uses a "
                    "different quantale")
            cod = ref.vgroup
        else:
            cod = _parse_object(target["group"], target["structure"], quantale)
        mapping = _resolve_rows([spec["map"]], cod.group.names, "group")[0]
        if len(mapping) != vg.size:
            raise StructuralError(
                f"morphism {spec['name']!r}: map must list one target element "
                "per source element")
        morphisms.append(VHom(vg, cod, mapping, name=spec["name"]))
    return WorkbenchDocument(quantale=quantale, vgroup=vg, morphisms=morphisms,
                             quantale_spec=data["quantale"],
                             morphism_specs=list(data.get("morphisms", ())))


def load_document(path, loading=()):
    """The document at ``path``, with the documents its path targets name.

    ``loading`` holds the paths of the documents that reference this one,
    outermost first.  Paths are resolved only to follow a reference, when
    ``loading`` is not empty: then the whole chain is, and a document that
    resolves to one before it in the chain is reported as a reference
    cycle, with the resolved chain, instead of followed.  A document read
    on its own, or whose targets are all inline, resolves no path.
    """
    path = Path(path)
    if loading:
        chain = [Path(p).resolve() for p in (*loading, path)]
        if chain[-1] in chain[:-1]:
            raise StructuralError(
                f"{path} is part of a document reference cycle: "
                + " -> ".join(str(p) for p in chain))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructuralError(f"{path} is nested too deeply to parse") from exc
    return parse_document(data, base_dir=path.parent, loading=(*loading, path))


def _emit_quantale(doc):
    spec = doc.quantale_spec
    if "builtin" in spec:
        out = {"builtin": spec["builtin"]}
        if "m" in spec:
            out["m"] = _integral(spec["m"])
        return out
    return _quantale_tables(doc.quantale)


def _quantale_tables(q):
    """A quantale as explicit order and tensor tables, by label."""
    return {
        "elements": list(q.labels),
        "leq": [list(row) for row in q.leq_table],
        "tensor": [[q.labels[v] for v in row] for row in q.tensor_table],
        "unit": q.labels[q.unit],
        "bottom": q.labels[q.bottom],
        "top": q.labels[q.top],
    }


def _emit_object(vg):
    q = vg.quantale
    return (
        {"elements": list(vg.group.names),
         "table": [[vg.group.names[v] for v in row] for row in vg.group.table]},
        [[q.labels[v] for v in row] for row in vg.structure.entries],
    )


def emit_document(doc):
    """The canonical plain-JSON form of a document (labels everywhere).

    Every morphism must carry a name, as the schema asks of a parsed one,
    and no two the same name.  An unnamed morphism raises, naming its
    index, and a repeated name raises, naming it, rather than emitting a
    document that ``parse_document`` refuses.
    """
    group, structure = _emit_object(doc.vgroup)
    out = {"quantale": _emit_quantale(doc), "group": group, "structure": structure}
    if doc.morphisms:
        morphisms, specs = [], doc.morphism_specs
        for i, hom in enumerate(doc.morphisms):
            if hom.name is None:
                raise StructuralError(f"morphism {i} has no name to emit")
            if any(m["name"] == hom.name for m in morphisms):
                raise StructuralError(f"morphism {hom.name!r} is named twice")
            # a morphism built without a spec emits its target inline
            target = specs[i]["target"] if i < len(specs) else None
            if isinstance(target, str):
                emitted_target = target
            else:
                tgt_group, tgt_structure = _emit_object(hom.cod)
                emitted_target = {"group": tgt_group, "structure": tgt_structure}
            morphisms.append({
                "name": hom.name,
                "target": emitted_target,
                "map": [hom.cod.group.names[v] for v in hom.mapping],
            })
        out["morphisms"] = morphisms
    return out


def document_text(doc):
    return canonical_json(emit_document(doc))


def document_from_vgroup(vg, quantale_spec=None):
    """A plain document value for one object, ready for canonical_json.

    ``quantale_spec`` may name a builtin (e.g. {"builtin": "boolean"});
    without it the quantale is emitted as explicit tables.
    """
    group, structure = _emit_object(vg)
    if quantale_spec is None:
        quantale_spec = _quantale_tables(vg.quantale)
    return {"quantale": quantale_spec, "group": group, "structure": structure}
