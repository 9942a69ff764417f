"""Workload topology (paper Table II): layers, networks, CSV parsing."""
