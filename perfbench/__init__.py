"""The repo benchmark for the serving stack (``python3 perfbench/run.py``).

See ``perfbench/README.md`` for the workloads, the metrics and how to run it.
"""
