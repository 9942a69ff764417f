"""Spatio-temporal mapping of layers onto systolic arrays (Table III)."""
