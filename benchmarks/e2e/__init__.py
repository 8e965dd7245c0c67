"""End-to-end benchmark of the reproduction: the full table run, one cold
experiment cell, a warm process of long rounds, and an observed run with
telemetry streaming and self-profiling on. See README.md in this
directory.

The driver (``python -m benchmarks.e2e``) imports nothing from
``repro``: every measured operation runs in a child process, so the
driver's own imports never land in a measurement.
"""
