"""Exact-arithmetic engine and Monte Carlo lab for the two-qubit
Hilbert-Schmidt separability probability 8/33."""

__version__ = "0.1.0"
