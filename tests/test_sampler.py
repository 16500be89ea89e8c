import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mricalib import GaussianPrior, build_schedule, renoise, tweedie_denoise, white_prior
from mricalib.errors import InvalidArgumentError, NumericError
from mricalib.priors import ScorePrior


def test_schedule_default_length():
    assert build_schedule(100).shape == (100,)


def test_schedule_single_step_is_sigma_max():
    assert build_schedule(1, sigma_max=2.0, sigma_min=0.5).tolist() == [2.0]


def test_schedule_geometric_values():
    assert np.allclose(build_schedule(3, sigma_max=1.0, sigma_min=0.01), [0.01, 0.1, 1.0],
                       rtol=1e-12)


def test_schedule_invalid_bounds():
    with pytest.raises(InvalidArgumentError):
        build_schedule(10, sigma_max=0.1, sigma_min=0.5)
    with pytest.raises(InvalidArgumentError):
        build_schedule(0)
    for sigma_max, sigma_min in ((np.inf, 0.01), (np.nan, 0.01), (1.0, np.nan)):
        with pytest.raises(InvalidArgumentError):
            build_schedule(10, sigma_max=sigma_max, sigma_min=sigma_min)
    with pytest.raises(InvalidArgumentError):  # adjacent levels round to one float
        build_schedule(10, sigma_max=np.nextafter(0.5, 1.0), sigma_min=0.5)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(min_value=2, max_value=200),
    sigma_min=st.floats(min_value=1e-4, max_value=0.5),
    ratio=st.floats(min_value=1.1, max_value=1e3),
)
def test_schedule_monotone_property(steps, sigma_min, ratio):
    s = build_schedule(steps, sigma_max=sigma_min * ratio, sigma_min=sigma_min)
    assert s.dtype == np.float64 and s.shape == (steps,)
    assert np.all(s > 0)
    assert np.all(np.diff(s) > 0)


# ---------------------------------------------------------------------------
# denoise step
# ---------------------------------------------------------------------------


def _rand_image(rng, n=16):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_tweedie_white_prior_exact_shrinkage():
    rng = np.random.default_rng(0)
    x = _rand_image(rng)
    prior = white_prior(16, 16)
    for sigma in build_schedule(100):
        out = tweedie_denoise(x, float(sigma), prior)
        assert np.max(np.abs(out - x / (1 + sigma**2))) <= 1e-12


def test_tweedie_sigma_zero_is_identity():
    rng = np.random.default_rng(1)
    x = _rand_image(rng)
    assert np.array_equal(tweedie_denoise(x, 0.0, white_prior(16, 16)), x)


def test_tweedie_fixes_prior_mean():
    rng = np.random.default_rng(2)
    mu = _rand_image(rng)
    prior = GaussianPrior(mu, np.full((16, 16), 2.0))
    out = tweedie_denoise(mu, 0.8, prior)
    assert np.max(np.abs(out - mu)) <= 1e-12


def test_tweedie_rejects_nonfinite_score():
    class BadPrior(ScorePrior):
        def evaluate(self, x, sigma, delta=None):
            out = np.zeros_like(x)
            out[0, 0] = np.nan
            return out

    with pytest.raises(NumericError):
        tweedie_denoise(np.zeros((4, 4), dtype=complex), 0.5, BadPrior())


@pytest.mark.parametrize("sigma", [-0.1, np.nan])
def test_tweedie_rejects_bad_sigma(sigma):
    class ZeroPrior(ScorePrior):  # checks no sigma itself
        def evaluate(self, x, sigma, delta=None):
            return np.zeros_like(x)

    with pytest.raises(InvalidArgumentError):
        tweedie_denoise(np.zeros((4, 4), dtype=complex), sigma, ZeroPrior())


# ---------------------------------------------------------------------------
# renoise
# ---------------------------------------------------------------------------


def test_renoise_zero_target_returns_estimate():
    rng = np.random.default_rng(3)
    x_hat, x_curr = _rand_image(rng), _rand_image(rng)
    for mode in ("deterministic", "stochastic"):
        out = renoise(x_hat, x_curr, 0.0, 0.5, mode=mode, seed=4)
        assert np.array_equal(out, x_hat)


def test_renoise_deterministic_seed_independent():
    rng = np.random.default_rng(4)
    x_hat, x_curr = _rand_image(rng), _rand_image(rng)
    a = renoise(x_hat, x_curr, 0.2, 0.5, mode="deterministic", seed=1)
    b = renoise(x_hat, x_curr, 0.2, 0.5, mode="deterministic", seed=999)
    assert np.array_equal(a, b)
    expected = x_hat + (0.2 / 0.5) * (x_curr - x_hat)
    assert np.allclose(a, expected, atol=1e-14)


def test_renoise_stochastic_std():
    n = 320
    x_hat = np.zeros((n, n), dtype=complex)
    out = renoise(x_hat, x_hat, 0.3, 0.5, mode="stochastic", seed=7)
    comp = np.concatenate([out.real.ravel(), out.imag.ravel()])
    assert comp.size >= 10**5
    assert abs(comp.std() - 0.3) <= 0.3 * 0.02


def test_renoise_order_violation_rejected():
    x = np.zeros((4, 4), dtype=complex)
    with pytest.raises(InvalidArgumentError):
        renoise(x, x, 0.6, 0.5)


@pytest.mark.parametrize("sigma_next, sigma_curr", [(np.nan, 1.0), (0.5, np.nan), (-0.1, 1.0)])
def test_renoise_nan_level_rejected(sigma_next, sigma_curr):
    x = np.ones((4, 4), dtype=complex)
    with pytest.raises(InvalidArgumentError):
        renoise(x, 2 * x, sigma_next, sigma_curr)


def test_full_reverse_pass_converges_to_tight_prior_mean():
    """With a near-degenerate prior the reverse flow lands on the mean."""
    rng = np.random.default_rng(5)
    mu = _rand_image(rng, 16)
    prior = GaussianPrior(mu, np.full((16, 16), 1e-10))
    sigmas = build_schedule(100, sigma_max=1.0, sigma_min=1e-3)
    x = sigmas[-1] * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    for t in range(sigmas.size, 0, -1):
        x_hat = tweedie_denoise(x, float(sigmas[t - 1]), prior)
        sigma_next = float(sigmas[t - 2]) if t >= 2 else 0.0
        x = renoise(x_hat, x, sigma_next, float(sigmas[t - 1]))
    assert np.linalg.norm(x - mu) <= 1e-3 * np.linalg.norm(mu)
