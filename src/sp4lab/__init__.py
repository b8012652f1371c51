"""Exact-arithmetic verifiers for the Sp4 Cartan/valuation substrate."""
