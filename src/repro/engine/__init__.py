"""Simulation engines: single-array (scale-up) and partitioned (scale-out)."""
