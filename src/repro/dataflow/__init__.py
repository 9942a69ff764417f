"""Cycle-accurate dataflow engines for OS / WS / IS systolic execution."""
