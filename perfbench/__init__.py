"""Seeded end-to-end and per-layer benchmark of the liefoliate package.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
