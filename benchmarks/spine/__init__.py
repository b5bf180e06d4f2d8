"""The measurement spine: one benchmark for the whole simulator.

Five named workloads, end-to-end metrics measured with tracing off in a
fresh process per repetition, and a separate traced repetition that
attributes host time to layers from outside the program.  See
``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root is the contract the metric names, units and bounds come from.
"""
