"""Numerical laboratory for the Weil-Petersson curvature operator of
Teichmueller space at regular-polygon surfaces, run at the genus-2 octagon."""

__version__ = "0.1.0"
