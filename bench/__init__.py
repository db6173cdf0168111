"""The serving-stack benchmark: five workloads, end-to-end and per-layer.

See ``bench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
