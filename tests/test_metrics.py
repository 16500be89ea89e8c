import numpy as np
import pytest

from mricalib import psnr, ssim
from mricalib.errors import InvalidArgumentError
from mricalib.phantom import PhantomSpec, make_phantom


def test_psnr_exact_match_is_infinite():
    ref = np.abs(make_phantom(PhantomSpec(size=32, seed=0)))
    assert psnr(ref, ref) == float("inf")


def test_psnr_hand_value():
    ref = np.zeros((10, 10))
    ref[0, 0] = 1.0  # peak 1
    x = ref + 0.1  # MSE = 0.01
    assert psnr(x, ref) == pytest.approx(20.0, abs=1e-9)


def test_psnr_on_complex_magnitudes():
    rng = np.random.default_rng(1)
    ref = make_phantom(PhantomSpec(size=32, seed=2))
    noisy = ref + 0.01 * (rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape))
    val = psnr(noisy, ref)
    assert 20 < val < 60


def test_psnr_rejects_zero_reference():
    with pytest.raises(InvalidArgumentError):
        psnr(np.ones((4, 4)), np.zeros((4, 4)))


def test_psnr_rejects_nan_reference():
    with pytest.raises(InvalidArgumentError):
        psnr(np.ones((4, 4)), np.full((4, 4), np.nan))


def test_ssim_rejects_nan_reference():
    ref = np.ones((16, 16))
    ref[3, 4] = np.nan
    with pytest.raises(InvalidArgumentError, match="reference maximum must be positive"):
        ssim(np.ones((16, 16)), ref)


def test_psnr_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        psnr(np.ones((4, 4)), np.ones((5, 5)))


def test_ssim_self_is_one():
    ref = make_phantom(PhantomSpec(size=48, seed=3))
    assert ssim(ref, ref) == pytest.approx(1.0, abs=1e-12)


def test_ssim_symmetry():
    rng = np.random.default_rng(4)
    for seed in range(3):
        a = np.abs(make_phantom(PhantomSpec(size=32, seed=seed)))
        b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, None)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_decreases_with_noise():
    rng = np.random.default_rng(5)
    ref = make_phantom(PhantomSpec(size=48, seed=6))
    mild = ref + 0.02 * rng.standard_normal(ref.shape)
    heavy = ref + 0.3 * rng.standard_normal(ref.shape)
    assert ssim(heavy, ref) < ssim(mild, ref) < 1.0


def test_ssim_bounded():
    rng = np.random.default_rng(7)
    a = np.abs(rng.standard_normal((32, 32)))
    b = np.abs(rng.standard_normal((32, 32)))
    val = ssim(a, b)
    assert -1.0 <= val <= 1.0
