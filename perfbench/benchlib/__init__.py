"""Library behind ``perfbench/run.py``: hermetic sandbox, span recorder,
workload definitions and output checks."""
