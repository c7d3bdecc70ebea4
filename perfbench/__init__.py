"""The repository benchmark: Fig. 8, artifact build and served search.

Run one workload from the repository root::

    python3 -m perfbench --workload fig8 --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and record the environment.
``BENCHMARK.json`` at the repository root lists the workloads and
metrics.  See ``perfbench/README.md`` for the design.
"""

__all__: list[str] = []
