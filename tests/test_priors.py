import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mricalib import GaussianPrior, gaussian_score, identity_delta, white_prior
from mricalib.errors import InvalidArgumentError
from mricalib.priors import clamp_delta, validate_delta


def _rand_image(rng, n=16):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_white_prior_score_is_negated_input():
    rng = np.random.default_rng(0)
    x = _rand_image(rng)
    prior = white_prior(16, 16)
    assert np.allclose(gaussian_score(x, 0.0, prior), -x, atol=1e-12)


def test_score_vanishes_at_mean():
    rng = np.random.default_rng(1)
    mu = _rand_image(rng)
    prior = GaussianPrior(mu, np.full((16, 16), 0.5))
    assert np.max(np.abs(prior.evaluate(mu, 0.7))) <= 1e-12


def test_white_prior_at_unit_sigma_halves():
    rng = np.random.default_rng(2)
    x = _rand_image(rng)
    prior = white_prior(16, 16)
    assert np.allclose(prior.evaluate(x, 1.0), -x / 2.0, atol=1e-12)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_gaussian_score_rejects_bad_sigma(sigma):
    with pytest.raises(InvalidArgumentError):
        white_prior(8, 8).evaluate(np.ones((8, 8)), sigma)


def test_nonpositive_spectrum_rejected():
    with pytest.raises(InvalidArgumentError):
        GaussianPrior(np.zeros((4, 4)), np.zeros((4, 4)))


def test_complex_spectrum_rejected():
    with pytest.raises(InvalidArgumentError, match="real"):
        GaussianPrior(np.zeros((4, 4)), np.ones((4, 4), dtype=np.complex128))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1j * np.inf])
def test_non_finite_mean_rejected(bad):
    mean = np.zeros((4, 4), dtype=np.complex128)
    mean[1, 2] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        GaussianPrior(mean, np.ones((4, 4)))


def test_shape_mismatch_rejected():
    prior = white_prior(8, 8)
    with pytest.raises(InvalidArgumentError):
        prior.evaluate(np.zeros((4, 4)), 0.5)


def test_score_affine_linearity():
    """score(ax + by) = a score(x) + b score(y) - (a + b - 1) score(0)."""
    rng = np.random.default_rng(3)
    mu = _rand_image(rng)
    spectrum = 0.1 + rng.random((16, 16))
    prior = GaussianPrior(mu, spectrum)
    x, y = _rand_image(rng), _rand_image(rng)
    a, b = 1.3, -0.4
    lhs = prior.evaluate(a * x + b * y, 0.5)
    rhs = (
        a * prior.evaluate(x, 0.5)
        + b * prior.evaluate(y, 0.5)
        - (a + b - 1) * prior.evaluate(np.zeros_like(x), 0.5)
    )
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(scale, 1.0)


def test_delta_helpers():
    d = identity_delta(3)
    assert d.shape == (6,) and np.all(d == 1.0)
    clamped = clamp_delta(np.array([-0.5, 2.5, 1.0, 0.3]))
    assert np.all(clamped >= 0) and np.all(clamped <= 2)
    with pytest.raises(InvalidArgumentError):
        validate_delta(np.array([0.5, 2.5]))
    with pytest.raises(InvalidArgumentError):
        validate_delta(np.ones(3))
    with pytest.raises(InvalidArgumentError):
        validate_delta(np.ones(4), layer_count=3)
    with pytest.raises(InvalidArgumentError):
        validate_delta(np.array([1.0, np.nan]))


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_white_prior_closed_form_property(sigma, seed):
    rng = np.random.default_rng(seed)
    x = _rand_image(rng, 8)
    prior = white_prior(8, 8)
    assert np.allclose(prior.evaluate(x, sigma), -x / (1 + sigma**2), atol=1e-12)
