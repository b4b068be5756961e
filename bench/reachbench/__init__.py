"""The repo's benchmark: inputs, workloads, span recorder and reporting.

``bench/run.py`` is the entry point; see ``bench/README.md`` for what is
measured, on which workload, and why.
"""
