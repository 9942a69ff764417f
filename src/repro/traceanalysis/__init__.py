"""Trace analysis: reuse distances and stream statistics.

SCALE-Sim's trace-based methodology exists so traces can be *analyzed*;
this package supplies the standard tools: LRU reuse-distance profiles
(the capacity-miss oracle for any buffer size) and per-stream
statistics, computed directly from the engines' exact address streams.
"""
