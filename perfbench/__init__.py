"""Benchmark of the seqssl training pipeline; run `python3 perfbench/run.py --help`."""
