"""One set-up of a benchmark workload, in a fresh process.

    python3 bench/setup_probe.py experiment '<ExperimentConfig.to_dict() as JSON>'
    python3 bench/setup_probe.py sweep '<run_bound_sweep keyword arguments as JSON>'

It imports halfdepth and calls the program's own entry point with its
first unit of work replaced by a stub: run_deviation_experiment with
_run_trial stubbed, or run_bound_sweep with evaluate_bound stubbed. So
everything the program does before its first trial or row (cover,
queries, population depths, thread pool) is timed as the program does
it. At its first call the stub prints one JSON line and ends the
process: the time.perf_counter() reading at that point (CLOCK_MONOTONIC,
so the parent can subtract its own reading from before the spawn) and
the import time.
"""

import time

import json
import os
import sys
from pathlib import Path


def main() -> None:
    entry, arguments = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    t0 = time.perf_counter()
    from halfdepth import experiments

    import_s = time.perf_counter() - t0

    def first_call(*args, **kwargs):
        ready = time.perf_counter()
        sys.stdout.write(json.dumps({"ready": ready, "import_s": import_s}) + "\n")
        sys.stdout.flush()
        os._exit(0)  # also from a pool thread, without waiting for the pool

    if entry == "experiment":
        experiments._run_trial = first_call
        experiments.run_deviation_experiment(experiments.ExperimentConfig.from_dict(arguments))
    else:
        experiments.evaluate_bound = first_call
        experiments.run_bound_sweep(**arguments)
    sys.exit("the entry point returned before its first trial or row")


if __name__ == "__main__":
    main()
