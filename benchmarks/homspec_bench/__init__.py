"""Benchmark harness for homspec: four workloads, end-to-end metrics from
untraced runs and per-layer metrics from a traced run.

Run ``python3 benchmarks/run.py --help`` from the repository root.
"""
