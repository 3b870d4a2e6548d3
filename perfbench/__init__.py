"""Benchmark harness for the mrm pipeline; run perfbench/run.py."""
