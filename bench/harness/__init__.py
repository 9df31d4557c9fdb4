"""Closed-loop benchmark harness for the tubeloss command line.

``workloads`` makes the seeded inputs, ``oracles`` checks every op's output
against closed forms that do not come from the program, ``calib`` is the
fixed calibration work that op times are divided by, and ``tracer`` records
per-layer spans from outside the program.
"""
