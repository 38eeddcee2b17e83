"""One step of a benchmark run, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<task as JSON>'

The task names a workload and a step: ``import`` (load the package
only), ``setup`` or ``pass`` (see workloads.py).  The step's result is
printed as one JSON object on the last line of standard output.  The
package is imported here, before anything else of it runs, so that its
import time is measured on a cold interpreter.  The speedometer
(speed.py) runs from before the import to the end of the step's work;
in a traced pass it samples only before and after, so that no sampling
lands in a span.
"""

import json
import resource
import sys
from pathlib import Path

from speed import Span, Speedometer


def main():
    task = json.loads(sys.argv[1])
    meter = Speedometer()
    meter.start(timer=not task.get("traced"))
    with Span(meter) as imported:
        import vgroups
        import vgroups.cli
    src = Path(task["src"]).resolve()
    if src not in Path(vgroups.__file__).resolve().parents:
        sys.exit(f"vgroups was imported from {vgroups.__file__}, not from {src}")
    import workloads
    result = workloads.run_step(task, meter, imported)
    result["kernel_ms"] = meter.kernel_ms()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
