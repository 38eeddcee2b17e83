"""Benchmark of the vgroups workbench.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery_smoke|suite_full|cli_documents
                             --seed N --seconds S --trace 0|1

A run first imports the package once to warm the bytecode cache, then
sets up several times, each in a fresh interpreter.  With
``--trace 0`` it then runs passes of the workload, each in a fresh
interpreter, for about ``--seconds`` seconds, and reports the
end-to-end metrics named in BENCHMARK.json as medians over the passes,
with times at a fixed reference speed of the machine (see speed.py).
With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics.  The machine is printed first, then a table of
every metric, then the result as one JSON object on the last line.
Outputs are checked; a failure makes ``correct`` false.  The run exits
non-zero, printing no result, when the program cannot be run.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_SECONDS = 2
# Passes per run at the least.  The p95 of cli_documents rests on the
# 15 slowest of its 313 commands, whose time at the reference speed
# still moves by up to 10% from pass to pass.  Over ten passes of one
# seed, the median of 3 passes spread by about 0.03 of its median.
MIN_PASSES = {"cli_documents": 3}
MIN_PASSES_DEFAULT = 2
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


class Runner:
    """Starts worker steps and waits for each, within the run's time limit."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def step(self, step, **task):
        task.update(step=step, workload=self.workload, seed=self.seed, src=str(SRC))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{step} step did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{step} step exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self):
        """At least ``SETUP_REPEATS`` set-ups, and more until ``SETUP_SECONDS``
        have gone, so that a cheap set-up is sampled many times."""
        results = []
        started = time.monotonic()
        while (len(results) < SETUP_REPEATS
               or time.monotonic() - started < SETUP_SECONDS):
            i = len(results)
            results.append(self.step("setup", dir=str(self.work_dir / f"docs-{i}"),
                                     verify=i == 0))
        return results

    def passes(self, seconds):
        """At least ``MIN_PASSES`` passes, and more until about ``seconds``
        have gone: another one starts only if it is expected to end less
        than half a pass after the limit."""
        docs = str(self.work_dir / "docs-0")
        least = MIN_PASSES.get(self.workload, MIN_PASSES_DEFAULT)
        results = []
        started = time.monotonic()
        while True:
            results.append(self.step("pass", dir=docs, traced=False))
            elapsed = time.monotonic() - started
            if len(results) >= least and \
                    elapsed + elapsed / len(results) / 2 >= seconds:
                return results

    def trace_pair(self):
        docs = str(self.work_dir / "docs-0")
        plain = self.step("pass", dir=docs, traced=False)
        traced = self.step("pass", dir=docs, traced=True)
        return [plain, traced]


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def docs_identical(work_dir, count):
    """Whether each of ``count`` set-ups wrote the same documents."""
    first = work_dir / "docs-0"
    names = sorted(p.name for p in first.iterdir())
    for i in range(1, count):
        other = work_dir / f"docs-{i}"
        if sorted(p.name for p in other.iterdir()) != names:
            return False
        if any((first / n).read_bytes() != (other / n).read_bytes()
               for n in names if n != "pool.json"):
            return False
    return True


def end_to_end(setups, passes, ok_frac):
    """Every pass runs the same operations, in the same order.  A metric
    is the median over the passes of its value in one pass, which a burst
    of load on the machine during one pass does not move."""
    def median(of_pass):
        return statistics.median(of_pass(p) for p in passes)

    def op_ms(p):
        return [ms for _, ms in p["ops"]]

    enumerated, total = next(r["homsets"] for r in setups + passes if r.get("homsets"))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": median(lambda p: p["wall_s"]),
        "cpu_s": median(lambda p: p["cpu_s"]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
        "cmd_p50_ms": median(lambda p: statistics.median(op_ms(p))),
        "cmd_p95_ms": median(lambda p: percentile(op_ms(p), 0.95)),
        "cmds_per_s": median(lambda p: len(p["ops"]) / (sum(op_ms(p)) / 1000)),
        "ok_frac": ok_frac,
        "homsets_enumerated_frac": enumerated / total,
    }


def per_layer(plain, traced):
    metrics = {}
    for name, layer in traced["layers"].items():
        if name.startswith("battery."):
            metrics[f"{name}.s"] = layer["total_s"]
        else:
            metrics[f"{name}.calls"] = layer["calls"]
            metrics[f"{name}.self_s"] = layer["self_s"]
    metrics.update(traced["details"])
    by_command = {}
    for command, ms in plain["ops"]:
        if command is not None:
            by_command.setdefault(command, []).append(ms)
    for command, values in by_command.items():
        metrics[f"cli.{command}.p50_ms"] = statistics.median(values)
    cached = traced["layers"]["factorization.cached_decomposition"]["calls"]
    metrics["factorization.decompose_hit_ratio"] = \
        1 - traced["decompose_under_cache"] / cached if cached else 0.0
    metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    return metrics


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "jsonschema": metadata.version("jsonschema"), "seed": seed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "vgroups" / "__init__.py").is_file():
        sys.exit(f"no vgroups package under {SRC}")
    work_dir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work_dir)
    try:
        runner.step("import")
        setups = runner.setups()
        passes = runner.trace_pair() if args.trace else runner.passes(args.seconds)
        if args.workload == "cli_documents" and \
                not docs_identical(work_dir, len(setups)):
            setups[0]["failed"] += 1
            setups[0]["failures"].append("set-ups wrote different documents")
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    steps = setups + passes
    attempted = sum(r.get("attempted", 0) for r in steps) or 1
    failed = sum(r.get("failed", 0) for r in steps)
    failures = [f for r in steps for f in r.get("failures", ())]
    if args.trace:
        metrics = per_layer(*passes)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(setups, passes, 1 - failed / attempted)
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(metrics) - names)
    if unknown:
        sys.exit(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace and names - set(metrics):
        sys.exit(f"end-to-end metrics not measured: {sorted(names - set(metrics))}")

    print("machine:", json.dumps(machine(args.seed)))
    print(f"speed: the speedometer's kernel took "
          f"{statistics.median(r['kernel_ms'] for r in steps):.3f} ms "
          f"(median over the steps of its mean); at the reference speed it "
          f"takes {speed.REFERENCE_KERNEL_S * 1000:g} ms")
    if not args.trace:
        print(f"{'failed_frac':<48} {failed / attempted:>14.6g} frac")
        print(f"{'homsets_skipped_frac':<48} "
              f"{1 - metrics['homsets_enumerated_frac']:>14.6g} frac")
    result = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
    for failure in failures[:10]:
        print("failure:", failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
