"""The repository benchmark: four workloads, end to end and layer by layer.

``BENCHMARK.json`` at the repository root describes this package (command,
workloads, metric names, units, regression bounds); ``README.md`` next to
this file explains what each number means and how the layers interact.

* ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
  is the single-workload entry point the benchmark driver calls.
* ``python -m benchmarks.perf run`` runs every workload in fresh child
  processes (several repetitions, then one traced pass) and writes a report.
* ``python -m benchmarks.perf compare A.json B.json`` applies the bounds.
"""
