"""The benchmark workloads, one step at a time.

Every step runs in a fresh interpreter started by run.py, so the
package's module-level decomposition cache is empty at the start of each
one, as it is for a real ``vgroups`` invocation.  The package is driven
only through its public functions.

Workloads (single client, closed loop: one call after the other):

* ``battery_smoke``: ``vgroups suite --suite-level smoke --format json``
  through ``cli.run``.  The morphism-level layers (group construction,
  pullbacks, factorizations) do most of the work here.
* ``suite_full``: ``standard_suite("full")`` and the object-level checks
  only.  Hom and structure enumeration, validation and descent do the
  work; the factorizations do none.
* ``cli_documents``: a seeded mix of single CLI commands on generated
  and shipped documents, each call timed on its own.  The documents and
  the commands on each are fixed; the seed orders the documents and
  picks each command's output format.  This is the only
  path through document parsing, schema checks and output emission.

Steps: ``setup`` measures what a user pays before the work (the package
import, plus document generation for ``cli_documents``); ``pass`` runs
the workload once and checks its outputs, traced when the task asks.
Every step gets the speedometer that runs while it works (speed.py) and
the span of the package import; it stops the speedometer when its work
is done, and reports times at the reference speed.
"""

import io
import json
import random
from pathlib import Path

from vgroups import battery, builders, cli
from vgroups.document import canonical_json, document_text, load_document

from speed import Span
from tracer import Tracer

SMOKE_ARGV = ["suite", "--suite-level", "smoke", "--format", "json"]

# The object-level checks of the battery: everything that does not
# quantify over morphisms.  The full 14-check battery at this level runs
# for minutes, too long to repeat in every run.
FULL_LEVEL_CHECKS = ("check_quantale_laws", "check_structure_routes",
                     "check_objects", "check_torsion_theory",
                     "check_pretorsion", "check_descent_windows")

# Documents drawn per quantale and group of the full suite, for objects
# and for morphisms (by domain) alike, and documents each command runs on
# per group, one quantale after another.  Spreading the commands evenly
# over the quantales keeps the cost of the slow ones, and so the tail
# latency, comparable from group to group.
DOCUMENTS_PER_STRATUM = 3
DOCUMENTS_PER_COMMAND = 4
# The draw of those documents.  It does not follow the run's seed: the
# cost of one command is heavy-tailed (a factorize of one S3 -> S3 map
# takes about 1 s, the median command 15 ms), so a seeded draw moved the
# work of a pass by up to 13% from seed to seed.
DOCUMENT_DRAW = 0

OBJECT_COMMANDS = (["validate"], ["classify"], ["decompose"], ["pretorsion"],
                   ["descent", "--window", "1"], ["descent", "--window", "2"],
                   ["descent", "--window", "3"])
MORPHISM_COMMANDS = (["classify", "--morphism", "f"], ["factorize", "--morphism", "f"],
                     ["ml-factorize", "--morphism", "f"], ["cover", "--morphism", "f"])

# Commands on the shipped documents whose JSON output is frozen in
# tests/expected/.
Z4_BOOLEAN = ["--input", "documents/z4_boolean.json"]
Z4_LAWVERE = ["--input", "documents/z4_lawvere.json"]
Z4_MORPHISM_Q = ["--input", "documents/z4_boolean_morphism.json", "--morphism", "q"]
SHIPPED = (
    ("classify_z4_boolean.json", ["classify"] + Z4_BOOLEAN),
    ("classify_z4_lawvere.json", ["classify"] + Z4_LAWVERE),
    ("classify_morphism_q.json", ["classify"] + Z4_MORPHISM_Q),
    ("decompose_z4_boolean.json", ["decompose"] + Z4_BOOLEAN),
    ("decompose_z4_lawvere.json", ["decompose"] + Z4_LAWVERE),
    ("factorize_q.json", ["factorize"] + Z4_MORPHISM_Q),
    ("ml_factorize_q.json", ["ml-factorize"] + Z4_MORPHISM_Q),
    ("cover_q.json", ["cover"] + Z4_MORPHISM_Q),
    ("pretorsion_z4_lawvere.json", ["pretorsion"] + Z4_LAWVERE),
)
EXPECTED_DIR = Path("tests/expected")


class Outcome:
    """Operations attempted and failed in one step, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10]}


def run_step(task, meter, imported):
    if task["step"] == "setup" and task["workload"] == "cli_documents":
        return setup_documents(task, meter, imported)
    if task["step"] != "pass":
        meter.stop()
        return {"setup_s": imported.settle().wall_s}
    tracer = Tracer() if task["traced"] else None
    result = PASSES[task["workload"]](task, meter, tracer)
    if tracer:
        layers, edges = tracer.summary()
        result["layers"] = layers
        result["decompose_under_cache"] = edges.get(
            ("factorization.cached_decomposition", "torsion.decompose"), 0)
    return result


def homset_coverage(suite):
    """(hom-sets enumerated, hom-sets in all), read from Suite.hom_sets."""
    return [sum(not hs.truncated for hs in suite.hom_sets), len(suite.hom_sets)]


def check_details(checks, results, outcome):
    """Per-check detail counts, keyed ``battery.<check>.<detail>``."""
    details = {}
    for check, result in zip(checks, results):
        outcome.check(result.get("ok") is True,
                      f"{check}: {result.get('failures', 'did not run')}")
        for key, value in result.get("details", {}).items():
            details[f"battery.{check}.{key}"] = len(value) \
                if isinstance(value, list) else value
    return details


def timed(meter, tracer, work):
    """Run ``work()`` timed, inside ``tracer`` if one is given, and stop
    the speedometer after it."""
    if tracer:
        tracer.install()
    try:
        with Span(meter) as measured:
            value = work()
    finally:
        if tracer:
            tracer.uninstall()
    meter.stop()
    return measured.settle(), value


def timings(measured):
    return {"wall_s": measured.wall_s, "cpu_s": measured.cpu_s}


# -- battery workloads --------------------------------------------------------

def battery_smoke_pass(task, meter, tracer):
    out = io.StringIO()
    measured, _ = timed(meter, tracer, lambda: cli.run(SMOKE_ARGV, out))
    checks = [check.__name__ for check in battery.ALL_CHECKS]
    outcome = Outcome()
    try:
        results = json.loads(out.getvalue())["checks"]
    except (ValueError, KeyError):  # no report: a check raised
        results = []
    if len(results) != len(checks):
        results = [{}] * len(checks)
    return {**timings(measured), "ops": [["suite", measured.wall_s * 1000]],
            "details": check_details(checks, results, outcome),
            "homsets": homset_coverage(builders.standard_suite("smoke")),
            **outcome.as_dict()}


def suite_full_pass(task, meter, tracer):
    results = []

    def work():
        suite = builders.standard_suite("full")
        for name in FULL_LEVEL_CHECKS:
            try:
                results.append(getattr(battery, name)(suite).as_dict())
            except Exception as exc:  # a raising check is a failed operation
                results.append({"ok": False, "failures": repr(exc)})
        return suite

    measured, suite = timed(meter, tracer, work)
    outcome = Outcome()
    return {**timings(measured), "ops": [[None, measured.wall_s * 1000]],
            "details": check_details(FULL_LEVEL_CHECKS, results, outcome),
            "homsets": homset_coverage(suite),
            **outcome.as_dict()}


# -- CLI documents ------------------------------------------------------------

def setup_documents(task, meter, imported):
    """Generate the document pool into ``task["dir"]``, timed.
    With ``task["verify"]`` every written document is then checked to
    round-trip byte-identically through ``load_document`` and
    ``document_text``."""
    with Span(meter) as generating:
        suite, written = write_documents(Path(task["dir"]), DOCUMENT_DRAW)
    meter.stop()
    setup_s = imported.settle().wall_s + generating.settle().wall_s

    outcome = Outcome()
    if task["verify"]:
        for path in written:
            text = path.read_text(encoding="utf-8")
            outcome.check(document_text(load_document(path)) == text,
                          f"{path.name} does not round-trip")
    return {"setup_s": setup_s, "homsets": homset_coverage(suite),
            **outcome.as_dict()}


def write_documents(out_dir, seed):
    """The full suite, and the documents written from it.

    Objects come from ``Suite.export_documents()`` of the full suite;
    morphism documents carry their target inline.  Both are drawn per
    group and quantale (the domain's, for a morphism), at most
    ``DOCUMENTS_PER_STRATUM`` of each, and pooled by group and quantale.
    """
    out_dir.mkdir(parents=True)
    rng = random.Random(seed)
    suite = builders.standard_suite("full")
    docs = suite.export_documents()
    strata = {"objects": {}, "morphisms": {}}
    for obj in suite.objects:
        strata["objects"].setdefault((obj.group_name, obj.quantale_name), []).append(
            docs[obj.name])
    for dom, cod, hom in suite.all_homs():
        strata["morphisms"].setdefault((dom.group_name, dom.quantale_name), []).append(
            (dom, cod, hom))
    pool = {"objects": {}, "morphisms": {}}
    written = []
    for kind, by_stratum in strata.items():
        for (group, quantale), members in by_stratum.items():
            paths = pool[kind].setdefault(group, {}).setdefault(quantale, [])
            count = min(DOCUMENTS_PER_STRATUM, len(members))
            for member in rng.sample(members, count):
                value = member if kind == "objects" \
                    else morphism_document(docs, *member)
                path = out_dir / f"{kind}-{len(written):03d}.json"
                path.write_text(canonical_json(value), encoding="utf-8")
                paths.append(str(path))
                written.append(path)
    (out_dir / "pool.json").write_text(json.dumps(pool), encoding="utf-8")
    return suite, written


def morphism_document(docs, dom, cod, hom):
    """The domain's document with the morphism, its target given inline."""
    target = docs[cod.name]
    return {**docs[dom.name],
            "morphisms": [{"name": "f",
                           "target": {"group": target["group"],
                                      "structure": target["structure"]},
                           "map": [cod.vgroup.group.names[v] for v in hom.mapping]}]}


def balanced_walk(strata, rng):
    """Every document of the strata, taking one from each stratum in turn;
    the strata and the documents within each are in ``rng``'s order."""
    lanes = [rng.sample(paths, len(paths)) for paths in strata]
    rng.shuffle(lanes)
    return [lane[i] for i in range(max(map(len, lanes))) for lane in lanes
            if i < len(lane)]


def command_mix(pool, seed):
    """The commands of every pass: each command on the first
    ``DOCUMENTS_PER_COMMAND`` documents of a fixed walk over each group's
    quantales, and the shipped-document commands.  The commands on one
    document run one after another, in a fixed order, so that the same
    command always pays for what the package caches about the document,
    and the object documents run before the morphism documents, whose
    ends they may share.  The seed orders the documents of each kind and
    picks each command's output format (always JSON on the shipped
    documents)."""
    by_document = {}
    for kind, commands in (("objects", OBJECT_COMMANDS),
                           ("morphisms", MORPHISM_COMMANDS)):
        for group, by_quantale in pool[kind].items():
            for command in commands:
                walk = balanced_walk(by_quantale.values(), random.Random(
                    f"{DOCUMENT_DRAW}/{group}/{' '.join(command)}"))
                for path in walk[:DOCUMENTS_PER_COMMAND]:
                    by_document.setdefault(path, []).append((None, command))
    for expected, argv in SHIPPED:
        by_document.setdefault(argv[2], []).append((expected, argv))
    rng = random.Random(seed)
    objects = sorted(p for p in by_document if "morphism" not in Path(p).name)
    morphisms = sorted(set(by_document) - set(objects))
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    mix = []
    for path in objects + morphisms:
        for expected, argv in by_document[path]:
            if expected is None:
                argv = argv + ["--input", path, "--format",
                               rng.choice(("text", "json"))]
            else:
                argv = argv + ["--format", "json"]
            mix.append((expected, argv))
    return mix


def output_ok(argv, expected, text):
    """Whether one command's output is right, as far as it can be told
    without recomputing it: frozen outputs match byte for byte, JSON
    output names its command, and validation and decompositions are
    consistent."""
    if expected is not None:
        return text == (EXPECTED_DIR / expected).read_text(encoding="utf-8")
    if argv[-1] == "text":
        return bool(text) and (argv[0] != "validate" or "ok: True\n" in text)
    report = json.loads(text)
    if report.get("command") != argv[0]:
        return False
    if argv[0] == "validate":
        return report["ok"] is True
    if argv[0] == "decompose":
        dec = report["decomposition"]
        return dec["notes"]["torsion_size"] * dec["notes"]["quotient_size"] \
            == len(dec["projection"])
    return True


def cli_documents_pass(task, meter, tracer):
    pool = json.loads((Path(task["dir"]) / "pool.json").read_text(encoding="utf-8"))
    mix = command_mix(pool, task["seed"])
    runs = []

    def work():
        for expected, argv in mix:
            out = io.StringIO()
            with Span(meter) as command:
                code = cli.run(argv, out)
            runs.append((code, out.getvalue(), command))

    measured, _ = timed(meter, tracer, work)
    outcome = Outcome()
    ops = []
    for (expected, argv), (code, text, command) in zip(mix, runs):
        try:
            ok = code == 0 and output_ok(argv, expected, text)
        except (ValueError, KeyError, TypeError):
            ok = False
        outcome.check(ok, f"{' '.join(argv)}: exit {code}")
        ops.append([argv[0], command.settle().wall_s * 1000])
    return {**timings(measured), "ops": ops,
            "details": {}, "homsets": None, **outcome.as_dict()}


PASSES = {"battery_smoke": battery_smoke_pass, "suite_full": suite_full_pass,
          "cli_documents": cli_documents_pass}
