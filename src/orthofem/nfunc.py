"""Scalar N-function calculus for orthotropic growth laws.

The growth of the flux in each coordinate direction is described by a
(regularized) power N-function

    phi(t) = (delta^2 + t^2)^(p/2) / p,      p > 1, delta >= 0,

which for delta = 0 reduces to t^p / p.  From phi we derive, per
coordinate, the flux A(t) = B(t) t, the weight B, the derivative A' that
weights the solver's Newton step, and the natural-distance map V.

All evaluation maps accept floats or numpy arrays and are pure; every
object here is immutable after construction.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerNFunction",
    "GrowthLaw",
    "conjugate_exponent",
]


def _check_nonnegative(t, what="argument"):
    if np.any(np.asarray(t) < 0):
        raise ValueError(f"{what} must be nonnegative")


@dataclass(frozen=True)
class PowerNFunction:
    """The N-function (delta^2 + t^2)^(p/2) / p on t >= 0."""

    p: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"exponent must satisfy p > 1, got {self.p}")
        if not self.delta >= 0:  # NaN fails too
            raise ValueError(f"regularization shift delta must be >= 0, got {self.delta}")

    def value(self, t):
        _check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        if self.delta == 0.0:
            out = t ** self.p / self.p
        else:
            out = (self.delta ** 2 + t ** 2) ** (self.p / 2) / self.p
        return out if out.ndim else float(out)


def conjugate_exponent(p):
    """Hoelder conjugate q = p/(p-1)."""
    if not p > 1:
        raise ValueError(f"conjugate exponent requires p > 1, got {p}")
    return p / (p - 1)


class GrowthLaw:
    """Per-coordinate growth description for the orthotropic problem.

    Parameters
    ----------
    exponents : pair of floats
        Growth exponents (p_1, p_2), each in (1, inf).
    deltas : pair of floats, optional
        Regularization shifts per coordinate; 0 gives the plain
        power-law case used in all convergence experiments.
    """

    def __init__(self, exponents, deltas=(0.0, 0.0)):
        exponents = tuple(float(p) for p in exponents)
        deltas = tuple(float(d) for d in deltas)
        if len(exponents) != 2 or len(deltas) != 2:
            raise ValueError("growth law is two-dimensional: need two exponents/deltas")
        for i, p in enumerate(exponents, 1):
            if not p > 1:  # NaN fails too
                raise ValueError(f"exponent p{i} must satisfy p{i} > 1, got {p}")
        self.phis = tuple(PowerNFunction(p, d) for p, d in zip(exponents, deltas))
        self.exponents = exponents
        self.deltas = deltas

    def phi(self, i):
        """The N-function of coordinate i (0-based)."""
        return self.phis[i]

    def flux(self, i, t):
        """A_i(t): sign(t) |t|^(p-1), or t (delta^2+t^2)^((p-2)/2) if regularized."""
        p, d = self.exponents[i], self.deltas[i]
        t = np.asarray(t, dtype=float)
        if d == 0.0:
            out = np.sign(t) * np.abs(t) ** (p - 1)
        else:
            out = t * (d ** 2 + t ** 2) ** ((p - 2) / 2)
        return out if out.ndim else float(out)

    def weight(self, i, t, clamp=0.0):
        """B_i(t) with A_i(t) = B_i(t) t, clamped away from the singularity.

        For p < 2 and delta = 0 the weight |t|^(p-2) blows up at t = 0,
        so a positive clamp on |t| is required there.
        """
        p, d = self.exponents[i], self.deltas[i]
        t = np.asarray(t, dtype=float)
        if d == 0.0:
            at = np.abs(t)
            if p < 2.0:
                if clamp <= 0.0:
                    raise ValueError(
                        "weight of a singular law (p < 2, delta = 0) needs clamp > 0"
                    )
                at = np.maximum(at, clamp)
            out = at ** (p - 2)
        else:
            out = (d ** 2 + t ** 2) ** ((p - 2) / 2)
        return out if out.ndim else float(out)

    def derivative(self, i, t, clamp=0.0):
        """A_i'(t): (p-1) B_i(t), clamped as in ``weight``, or
        (delta^2 + (p-1) t^2) (delta^2 + t^2)^((p-4)/2) if regularized."""
        p, d = self.exponents[i], self.deltas[i]
        if d == 0.0:
            return (p - 1) * self.weight(i, t, clamp)
        t = np.asarray(t, dtype=float)
        out = (d ** 2 + (p - 1) * t ** 2) * (d ** 2 + t ** 2) ** ((p - 4) / 2)
        return out if out.ndim else float(out)

    def natural(self, i, t):
        """Natural-distance map V_i(t) = sign(t) |t|^(p/2).

        Error measurement always uses the unregularized form, so the
        delta of the law is ignored here.
        """
        p = self.exponents[i]
        t = np.asarray(t, dtype=float)
        out = np.sign(t) * np.abs(t) ** (p / 2)
        return out if out.ndim else float(out)
