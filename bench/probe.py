"""Set-up probe: a fresh interpreter imports entgrowth and resolves a workload's configs.

Prints ``time.perf_counter()`` when ready.  On Linux that clock is
system-wide (CLOCK_MONOTONIC), so the parent subtracts the value it read
just before starting this process to get the set-up time.

Usage: python3 bench/probe.py <src-dir> <workload> <seed>
"""

import os
import sys
import time


def main():
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import entgrowth.scenarios  # noqa: F401  (the pipeline every run calls)
    from entgrowth.config import parse_config

    import workloads

    # the two first configs cover both kinds of the alternating chain workload
    for index in (0, 1):
        doc = workloads.make_config(workload, seed, index, os.devnull, os.devnull)
        parse_config(workloads.config_text(doc))
    print(repr(time.perf_counter()), flush=True)


if __name__ == "__main__":
    main()
