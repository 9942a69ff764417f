"""Analytical runtime model and design-space search (paper Sec. III)."""
