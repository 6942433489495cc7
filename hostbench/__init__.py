"""Host wall-time benchmark of the repro simulator.

``python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints one JSON line of
metrics.  See ``BENCHMARK.json`` for the workloads and metrics, and
``hostbench/predictions.json`` for which layer metric should move which
end-to-end metric on which workload.
"""
