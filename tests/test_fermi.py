import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from dotdiode.electrostatics import (
    _FD_COEF, fermi_half, fermi_half_deriv, inverse_fermi_half, _fermi_half_pair,
)


def fermi_half_quadrature(eta):
    """Adaptive-quadrature oracle for the complete FD integral of order 1/2."""
    def integrand(e):
        with np.errstate(over="ignore"):     # exp overflow: the tail is 0
            return np.sqrt(e) / (1.0 + np.exp(e - eta))

    if eta > 0:
        value = quad(integrand, 0.0, eta)[0] + quad(integrand, eta, np.inf)[0]
    else:
        value = quad(integrand, 0.0, np.inf)[0]
    return 2.0 / np.sqrt(np.pi) * value


def test_boltzmann_limit():
    assert fermi_half(-30.0) == pytest.approx(np.exp(-30.0), rel=1e-3)


def test_eta_zero_against_quadrature():
    assert fermi_half(0.0) == pytest.approx(fermi_half_quadrature(0.0), rel=5e-3)


def test_degenerate_regime_against_quadrature():
    oracle = fermi_half_quadrature(10.0)
    assert fermi_half(10.0) == pytest.approx(oracle, rel=5e-3)
    # Sommerfeld asymptote scale check
    assert fermi_half(10.0) == pytest.approx(4.0 / (3.0 * np.sqrt(np.pi)) * 10.0 ** 1.5,
                                             rel=0.02)


def test_quadrature_accuracy_on_coarse_grid():
    for eta in np.linspace(-30.0, 30.0, 61):
        assert fermi_half(eta) == pytest.approx(fermi_half_quadrature(eta), rel=5e-3)


@given(st.floats(min_value=-60.0, max_value=40.0))
def test_derivative_positive(eta):
    assert fermi_half_deriv(eta) > 0.0


@given(st.floats(min_value=-40.0, max_value=30.0))
def test_derivative_matches_finite_differences(eta):
    step = 1e-6 * max(1.0, abs(eta))
    fd = (fermi_half(eta + step) - fermi_half(eta - step)) / (2.0 * step)
    assert fermi_half_deriv(eta) == pytest.approx(fd, rel=1e-5)


@given(st.floats(min_value=-50.0, max_value=30.0))
def test_inverse_round_trip(eta):
    assert inverse_fermi_half(fermi_half(eta)) == pytest.approx(eta, abs=1e-9)


def test_inverse_rejects_nonpositive():
    with pytest.raises(ValueError):
        inverse_fermi_half(0.0)


def test_inverse_round_trip_over_the_full_positive_range():
    u = np.logspace(-300, 6, 3001)
    eta = inverse_fermi_half(u)
    assert np.all(np.isfinite(eta))
    np.testing.assert_allclose(fermi_half(eta), u, rtol=1e-12)


@pytest.mark.parametrize("u", [1.0, 1.0 + 1e-9, 1.0 - 1e-9])
def test_inverse_at_and_around_unity(u):
    # Nilsson's start is 0/0 at u = 1 exactly
    eta = inverse_fermi_half(u)
    assert isinstance(eta, float)
    assert fermi_half(eta) == pytest.approx(u, rel=1e-14)


def test_inverse_scalar_matches_array_element():
    u = np.array([1e-5, 0.3, 1.0, 7.0, 250.0])
    for value, eta in zip(u, inverse_fermi_half(u)):
        assert inverse_fermi_half(float(value)) == pytest.approx(eta, rel=1e-13, abs=1e-13)


def test_pair_matches_public_kernels():
    eta = np.concatenate([np.linspace(-800.0, 1.0e3, 180_001),
                          [-50.0, np.nextafter(-50.0, -np.inf), np.nextafter(-50.0, 0.0)]])
    f, df = _fermi_half_pair(eta)
    np.testing.assert_allclose(f, _reference_fermi_half(eta), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(df, _reference_fermi_half_deriv(eta), rtol=1e-14, atol=0.0)


def test_pair_scalar_and_boltzmann_tail():
    f, df = _fermi_half_pair(0.25)
    assert isinstance(f, float) and isinstance(df, float)
    assert f == pytest.approx(fermi_half(0.25), rel=1e-14)
    assert df == pytest.approx(fermi_half_deriv(0.25), rel=1e-14)
    assert _fermi_half_pair(-60.0) == (np.exp(-60.0), np.exp(-60.0))


# The Bednarczyk form in plain `**` arithmetic over the whole array: the
# rounding oracle of the product-form kernel, which rounds its integer
# powers and nu^-11/8 differently in the last bits.
def _reference_fermi_half(eta):
    eta = np.asarray(eta, dtype=float)
    safe = np.clip(eta, -50.0, 1.0e60)
    t = safe + 1.0
    g = np.exp(-0.17 * t * t)
    nu = safe ** 4 + 50.0 + 33.6 * safe * (1.0 - 0.68 * g)
    xi = _FD_COEF * nu ** -0.375
    out = np.where(eta < -50.0, np.exp(np.clip(eta, -745.0, 0.0)),
                   1.0 / (np.exp(-safe) + xi))
    return out if out.ndim else float(out)


def _reference_fermi_half_deriv(eta):
    eta = np.asarray(eta, dtype=float)
    safe = np.clip(eta, -50.0, 1.0e60)
    t = safe + 1.0
    g = np.exp(-0.17 * t * t)
    nu = safe ** 4 + 50.0 + 33.6 * safe * (1.0 - 0.68 * g)
    dnu = 4.0 * safe ** 3 + 33.6 * (1.0 - 0.68 * g) + 33.6 * 0.34 * 0.68 * safe * t * g
    xi = _FD_COEF * nu ** -0.375
    dxi = -0.375 * _FD_COEF * nu ** -1.375 * dnu
    denom = np.exp(-safe) + xi
    out = np.where(eta < -50.0, np.exp(np.clip(eta, -745.0, 0.0)),
                   (np.exp(-safe) - dxi) / (denom * denom))
    return out if out.ndim else float(out)


EDGES = [-50.0, np.nextafter(-50.0, -np.inf), np.nextafter(-50.0, 0.0), np.nan, 1.0e61]


def test_public_kernels_are_bit_identical_to_the_pair():
    eta = np.concatenate([np.linspace(-800.0, 1.0e3, 180_001), EDGES])
    f, df = _fermi_half_pair(eta)
    assert np.array_equal(fermi_half(eta), f, equal_nan=True)
    assert np.array_equal(fermi_half_deriv(eta), df, equal_nan=True)
    assert np.isnan(f[-2]) and np.isnan(df[-2])


def test_public_kernels_keep_shape_and_scalar_type():
    grid = np.linspace(-70.0, 30.0, 60).reshape(6, 10)     # tail and body mixed
    f, df = _fermi_half_pair(grid)
    assert f.shape == df.shape == grid.shape
    assert np.array_equal(fermi_half(grid), f)
    assert np.array_equal(fermi_half_deriv(grid), df)
    for eta in (-60.0, *EDGES, 0.25):
        pair = _fermi_half_pair(eta)
        for kernel, value in ((fermi_half, pair[0]), (fermi_half_deriv, pair[1])):
            out = kernel(eta)
            assert type(out) is float
            assert np.array_equal(out, value, equal_nan=True)
