"""The repo benchmark: four workloads, measured from outside ``src/``.

``BENCHMARK.json`` at the repo root names the command
(``python3 bench/run.py``), the workloads and every metric; this package
is the harness behind it.  ``bench/README.md`` has the tables, the
reason for each workload and the predictions that tie layers to
end-to-end metrics.  Nothing here is imported by ``src/repro``.
"""
