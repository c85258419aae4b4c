"""Benchmark of the madic_heisenberg library; see README.md in this directory."""
