"""Set-up probe: import oslr, run one simulation cell, print the time.

The benchmark times this script from spawn to the time.monotonic() value it
prints when the cell is done: the workload's set-up time, made of interpreter
start, imports, lazy set-up, any JIT compile and, at more than one worker,
the pool's start. It imports nothing from the benchmark so that none of that
time is the benchmark's own.

Usage: probe.py <n_b> <replicates> <workers> <seed>
"""

import sys
import time


def main(argv) -> int:
    from oslr.simulation import Scenario, run_scenario

    n_b, replicates, workers, seed = (int(v) for v in argv)
    scenario = Scenario(kappa=1.0, n_b=n_b, pi=1.0, replicates=replicates, seed=seed)
    run_scenario(scenario, workers=workers)
    print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
