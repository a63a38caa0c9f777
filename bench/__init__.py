"""Seeded two-clock benchmark of the SHIFT reproduction (see README.md)."""
