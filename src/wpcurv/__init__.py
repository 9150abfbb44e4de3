"""Numerical laboratory for the Weil-Petersson curvature operator of
genus-2 Teichmueller space, evaluated at the regular-octagon surface."""

__version__ = "0.1.0"
