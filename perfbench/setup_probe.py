"""Set-up probe: import isacbeam and build the workload caller's inputs, then
print ``ready`` and exit. ``run.py`` times this process from its start to
that line to measure ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads

    workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print("ready", flush=True)
