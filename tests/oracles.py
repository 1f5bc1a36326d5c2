"""Reference computations shared by several test modules."""

import numpy as np


def integrate(space, cell, integrand, degree):
    """Gauss integral of a pointwise integrand over one cell."""
    pts, wts = space.rule_geometry(degree)
    return float(np.sum(wts[cell] * np.asarray(integrand(pts[cell]))))
