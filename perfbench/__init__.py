"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it with ``python perfbench/run.py``; see ``perfbench/README.md``.
"""
