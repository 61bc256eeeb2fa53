"""Exact-arithmetic invariants of generalized Hopf links and decorated graphs."""

__version__ = "0.1.0"
