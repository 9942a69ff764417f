"""Shared utilities: integer math, validation helpers, atomic file io."""
