"""Set up one workload in a fresh interpreter and print the moment it is ready.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Set-up is importing arcsim, building the run configuration(s) and solving
the initial repellent (which fills the elliptic caches). The last line of
output is ``time.perf_counter()`` at that point; the parent subtracts the
time it spawned this process, so interpreter start-up is included.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.prepare(workload.make_inputs(seed), workdir)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
