"""The repository benchmark: end-to-end workloads and a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
layers map onto them.
"""
