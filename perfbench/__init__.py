"""The repository benchmark: three workloads, timed end to end and per layer.

Run ``python3 perfbench/run.py --help`` from the root of a checkout; see
``perfbench/README.md`` for the workloads, the metrics and the traced run.
"""
