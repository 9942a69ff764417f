"""Event-count energy model (paper Sec. IV-A, Fig. 12)."""
