from dataclasses import dataclass

import numpy as np
import pytest

from orthofem.nfunc import (GrowthLaw, PowerNFunction, _check_nonnegative,
                            conjugate_exponent)

from oracles import phi_deriv

# bounds of the monotonicity/distance ratio (A(s)-A(t))(s-t) / (V(s)-V(t))^2
# over the signed log grid below, found by the brute-force sweep in
# test_equivalence_ratio_within_frozen_bounds; frozen with a 1e-9 margin.
EQUIVALENCE_BOUNDS = {
    1.5: (0.890409857, 1.051463967),
    2.0: (0.999999999, 1.000000001),
    3.0: (0.894819348, 1.051463967),
}

# constants for the shifted Young inequality with epsilon = 1/2, found by
# sweeping t, s over log grids and shifts a in {0, 0.3, 1, 5}
YOUNG_CONSTANTS = {1.5: 2.0, 2.0: 2.0, 3.0: 15.6}


def central_diff(f, t, step=1e-6):
    return (f(t + step) - f(t - step)) / (2 * step)


def deriv2(phi, t):
    """phi''(t) = (delta^2 + t^2)^((p-4)/2) (delta^2 + (p-1) t^2)."""
    _check_nonnegative(t)
    t = np.asarray(t, dtype=float)
    if phi.delta == 0.0:
        out = (phi.p - 1) * t ** (phi.p - 2)
    else:
        out = (phi.delta ** 2 + t ** 2) ** ((phi.p - 4) / 2) * (
            phi.delta ** 2 + (phi.p - 1) * t ** 2
        )
    return out if out.ndim else float(out)


def psi_deriv(law, i, t):
    """psi_i'(t) = sqrt(t phi_i'(t)) for t >= 0."""
    _check_nonnegative(t)
    t = np.asarray(t, dtype=float)
    out = np.sqrt(t * phi_deriv(law.phi(i), t))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShiftedNFunction:
    """Shift phi_a'(t) = t/(a+t) phi'(a+t) of a power N-function by a
    gradient magnitude a >= 0, for the convexity and Young checks."""

    base: PowerNFunction
    a: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"shift must be >= 0, got {self.a}")

    def deriv(self, t):
        """t/(a+t) phi'(a+t), continued by 0 at t = 0."""
        _check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        denom = self.a + t
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(denom > 0, t / np.where(denom > 0, denom, 1.0), 0.0)
        out = out * phi_deriv(self.base, denom)
        return out if out.ndim else float(out)

    def value(self, t):
        """Integral of the shifted derivative from 0 to t.

        Uses the closed-form antiderivative of s (a+s)^(p-2) when
        delta = 0 and adaptive 32-node Gauss-Legendre otherwise.
        """
        _check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        if self.base.delta == 0.0:
            out = self._value_closed(t)
        else:
            out = np.vectorize(self._value_quad)(t)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def _value_closed(self, t):
        p, a = self.base.p, self.a
        s = a + t
        if a == 0.0:
            return t ** p / p
        return (s ** p - a ** p) / p - a * (s ** (p - 1) - a ** (p - 1)) / (p - 1)

    def _value_quad(self, t, rel_tol=1e-10):
        if t == 0.0:
            return 0.0
        nodes, weights = np.polynomial.legendre.leggauss(32)

        def panel(lo, hi):
            mid, half = (hi + lo) / 2, (hi - lo) / 2
            return half * float(np.sum(weights * self.deriv(mid + half * nodes)))

        def refine(lo, hi, whole, depth):
            mid = (lo + hi) / 2
            left, right = panel(lo, mid), panel(mid, hi)
            if abs(left + right - whole) <= rel_tol * (abs(left) + abs(right)) or depth > 40:
                return left + right
            return refine(lo, mid, left, depth + 1) + refine(mid, hi, right, depth + 1)

        return refine(0.0, float(t), panel(0.0, float(t)), 0)


class TestPowerNFunction:
    def test_plain_square(self):
        phi = PowerNFunction(2.0)
        assert phi.value(3.0) == pytest.approx(4.5, abs=0)

    def test_sqrt_derivative(self):
        phi = PowerNFunction(1.5)
        assert phi_deriv(phi, 4.0) == pytest.approx(2.0, abs=0)

    def test_derivatives_match_finite_differences(self):
        # oracle: central differences of value/deriv at step 1e-6
        phi = PowerNFunction(3.0)
        for t in (0.5, 1.0, 2.0):
            fd1 = central_diff(phi.value, t)
            fd2 = central_diff(lambda t: phi_deriv(phi, t), t)
            assert phi_deriv(phi, t) == pytest.approx(fd1, rel=1e-6)
            assert deriv2(phi, t) == pytest.approx(fd2, rel=1e-6)

    def test_value_at_zero(self):
        assert PowerNFunction(3.0).value(0.0) == 0.0
        assert phi_deriv(PowerNFunction(3.0), 0.0) == 0.0
        phi = PowerNFunction(3.0, delta=0.5)
        assert phi.value(0.0) == pytest.approx(0.5 ** 3 / 3)

    def test_regularized_is_finite(self):
        phi = PowerNFunction(1.5, delta=0.1)
        t = np.logspace(-8, 3, 30)
        for f in (phi.value, lambda t: phi_deriv(phi, t), lambda t: deriv2(phi, t)):
            assert np.all(np.isfinite(f(t)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            PowerNFunction(1.0)
        nan = float("nan")
        for delta in (-0.1, nan):
            with pytest.raises(ValueError, match="delta"):
                PowerNFunction(2.0, delta=delta)
            with pytest.raises(ValueError, match="delta"):
                GrowthLaw((2.0, 3.0), (0.0, delta))
        for p in (nan, 0.5):
            with pytest.raises(ValueError):
                PowerNFunction(p)
        with pytest.raises(ValueError):
            PowerNFunction(2.0).value(-1.0)

    def test_doubling_bound(self):
        # phi(2t) / phi(t) equals 2^p for the plain power family
        for p in (1.5, 2.0, 3.0):
            phi = PowerNFunction(p)
            t = np.logspace(-5, 3, 40)
            ratio = phi.value(2 * t) / phi.value(t)
            assert np.all(ratio <= 2 ** p * (1 + 1e-12))


class TestShiftedNFunction:
    def test_zero_shift_reduces_to_base(self):
        phi = PowerNFunction(2.5)
        shifted = ShiftedNFunction(phi, 0.0)
        for t in (0.1, 0.7, 2.0, 9.0):
            assert shifted.value(t) == pytest.approx(phi.value(t) - phi.value(0.0),
                                                     rel=1e-13)

    def test_derivative_formula(self):
        shifted = ShiftedNFunction(PowerNFunction(2.0), 1.0)
        assert shifted.deriv(1.0) == pytest.approx(1.0, abs=0)
        assert shifted.deriv(0.0) == 0.0

    def test_value_matches_trapezoid_oracle(self):
        # oracle: composite trapezoid of the shifted derivative, 1e4 panels
        shifted = ShiftedNFunction(PowerNFunction(3.0), 0.7)
        for t in np.linspace(0.1, 5.0, 8):
            s = np.linspace(0.0, t, 10001)
            ref = np.trapezoid(shifted.deriv(s), s)
            assert shifted.value(t) == pytest.approx(ref, rel=1e-8)

    def test_regularized_value_matches_trapezoid_oracle(self):
        shifted = ShiftedNFunction(PowerNFunction(1.5, delta=0.2), 0.4)
        for t in (0.5, 2.0):
            s = np.linspace(0.0, t, 20001)
            ref = np.trapezoid(shifted.deriv(s), s)
            assert shifted.value(t) == pytest.approx(ref, rel=1e-8)

    def test_convexity_by_second_differences(self):
        shifted = ShiftedNFunction(PowerNFunction(1.5), 0.3)
        t = np.linspace(0.0, 4.0, 200)
        v = shifted.value(t)
        second = v[:-2] - 2 * v[1:-1] + v[2:]
        assert shifted.value(0.0) == 0.0
        assert np.all(np.diff(v) >= -1e-14)
        assert np.all(second >= -1e-12)

    def test_negative_input_rejected(self):
        shifted = ShiftedNFunction(PowerNFunction(2.0), 1.0)
        with pytest.raises(ValueError):
            shifted.deriv(-0.5)
        with pytest.raises(ValueError):
            ShiftedNFunction(PowerNFunction(2.0), -1.0)

    def test_shifted_young_inequality(self):
        # Phi_a'(t) s <= Phi_a(t)/2 + C Phi_a(s) with the frozen sweep constant
        ts = np.logspace(-3, 2, 40)
        ss = np.logspace(-3, 2, 40)
        for p, c_young in YOUNG_CONSTANTS.items():
            for a in (0.0, 0.3, 1.0, 5.0):
                shifted = ShiftedNFunction(PowerNFunction(p), a)
                for t in ts:
                    lhs = shifted.deriv(t) * ss
                    rhs = shifted.value(t) / 2 + c_young * shifted.value(ss)
                    assert np.all(lhs <= rhs * (1 + 1e-12))


class TestGrowthLaw:
    def test_flux_examples(self):
        law = GrowthLaw((3.0, 1.5))
        assert law.flux(0, 2.0) == pytest.approx(4.0, abs=0)
        assert law.flux(0, 0.0) == 0.0
        assert law.flux(1, 0.25) == pytest.approx(0.5, rel=1e-15)

    def test_flux_equals_weight_times_t(self):
        law = GrowthLaw((3.0, 1.5))
        for i, t in [(0, 0.7), (0, -2.0), (1, 0.3), (1, -1.2)]:
            assert law.flux(i, t) == pytest.approx(
                law.weight(i, t, clamp=1e-10) * t, rel=1e-13)

    def test_weight_examples(self):
        assert GrowthLaw((2.0, 2.0)).weight(0, 123.0) == 1.0
        assert GrowthLaw((3.0, 2.0)).weight(0, 4.0) == pytest.approx(4.0, abs=0)
        law = GrowthLaw((1.5, 2.0))
        assert law.weight(0, 0.0, clamp=1e-10) == pytest.approx(1e5, rel=1e-12)

    def test_weight_clamp_required(self):
        law = GrowthLaw((1.5, 2.0))
        with pytest.raises(ValueError):
            law.weight(0, 0.5, clamp=0.0)

    @pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.3, 0.05)])
    def test_derivative_matches_central_differences_of_flux(self, deltas):
        law = GrowthLaw((3.5, 1.5), deltas)
        t = np.concatenate([-np.logspace(-2, 1, 20), np.logspace(-2, 1, 20)])
        eps = 1e-6 * np.abs(t)
        for i in (0, 1):
            slope = (law.flux(i, t + eps) - law.flux(i, t - eps)) / (2 * eps)
            assert np.allclose(law.derivative(i, t, clamp=1e-10), slope, rtol=1e-7, atol=0)

    def test_derivative_clamp(self):
        # delta = 0 and p < 2: A'(t) = (p-1) |t|^(p-2) is clamped as B is
        law = GrowthLaw((1.5, 2.0))
        assert law.derivative(0, 0.0, clamp=1e-10) == pytest.approx(0.5e5, rel=1e-12)
        assert law.derivative(0, -1e-12, clamp=1e-10) == law.derivative(0, 0.0, clamp=1e-10)
        assert law.derivative(1, 0.0) == 1.0
        with pytest.raises(ValueError):
            law.derivative(0, 0.5, clamp=0.0)
        # a regularized law needs no clamp: A'(0) = delta^(p-2)
        regularized = GrowthLaw((1.5, 1.5), deltas=(0.1, 0.1))
        assert regularized.derivative(0, 0.0) == pytest.approx(0.1 ** -0.5, rel=1e-13)

    def test_natural_examples(self):
        assert GrowthLaw((2.0, 2.0)).natural(0, -3.0) == -3.0
        assert GrowthLaw((3.0, 2.0)).natural(0, 4.0) == pytest.approx(8.0, abs=0)
        # oracle: direct power evaluation |t|^(p/2) * sign(t)
        law = GrowthLaw((1.5, 2.0))
        t = 0.0625
        assert law.natural(0, t) == pytest.approx(t ** 0.75, rel=1e-14)
        assert law.natural(0, t) == pytest.approx(0.125, rel=1e-12)

    def test_oddness(self):
        law = GrowthLaw((3.0, 1.5))
        t = np.concatenate([-np.logspace(-4, 2, 20), np.logspace(-4, 2, 20)])
        for i in (0, 1):
            assert np.allclose(law.flux(i, -t), -law.flux(i, t), rtol=0, atol=0)
            assert np.allclose(law.natural(i, -t), -law.natural(i, t), rtol=0, atol=0)

    def test_natural_strictly_increasing(self):
        law = GrowthLaw((1.5, 3.0))
        t = np.linspace(-3, 3, 101)
        for i in (0, 1):
            assert np.all(np.diff(law.natural(i, t)) > 0)

    def test_psi_consistency(self):
        # psi'(t)^2 = t phi'(t) on a log grid
        for p in (1.5, 2.0, 3.0):
            law = GrowthLaw((p, p))
            t = np.logspace(-6, 3, 50)
            lhs = psi_deriv(law, 0, t) ** 2
            rhs = t * phi_deriv(law.phi(0), t)
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_regularized_flux_finite_everywhere(self):
        law = GrowthLaw((1.5, 3.0), deltas=(0.05, 0.05))
        t = np.linspace(-10, 10, 101)
        for i in (0, 1):
            assert np.all(np.isfinite(law.flux(i, t)))
            assert np.all(np.isfinite(law.weight(i, t)))

    def test_equivalence_ratio_within_frozen_bounds(self):
        grid = np.concatenate([-np.logspace(-4, 2, 25)[::-1], np.logspace(-4, 2, 25)])
        for p, (c_lo, c_hi) in EQUIVALENCE_BOUNDS.items():
            law = GrowthLaw((p, p))
            s, t = np.meshgrid(grid, grid, indexing="ij")
            mask = s != t
            num = (law.flux(0, s) - law.flux(0, t)) * (s - t)
            den = (law.natural(0, s) - law.natural(0, t)) ** 2
            ratio = num[mask] / den[mask]
            assert c_lo > 0
            assert ratio.min() >= c_lo - 1e-12
            assert ratio.max() <= c_hi + 1e-12


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == pytest.approx(2.0, abs=0)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, abs=0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5, abs=0)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)
