import numpy as np
import pytest

from mricalib import PhantomSpec, make_phantom
from mricalib.errors import InvalidArgumentError
from mricalib.phantom import _ellipse, _unit_grid


def test_determinism():
    spec = PhantomSpec(kind="ellipse-phantom", size=48, seed=3)
    assert np.array_equal(make_phantom(spec), make_phantom(spec))


def test_base_magnitude_normalized():
    for kind in ("ellipse-phantom", "piecewise-smooth", "texture-mix"):
        mag = np.abs(make_phantom(PhantomSpec(kind=kind, size=48, seed=1)))
        assert mag.min() >= 0.0
        assert abs(mag.max() - 1.0) <= 1e-12


def test_identity_shift_equals_base():
    base = make_phantom(PhantomSpec(size=32, seed=5))
    shifted = make_phantom(
        PhantomSpec(size=32, seed=5, contrast_exponent=1.0, bias_amplitude=0.0,
                    resolution_scale=1.0)
    )
    assert np.array_equal(base, shifted)


def test_bias_field_ratio_bounded_and_smooth():
    base = np.abs(make_phantom(PhantomSpec(size=64, seed=7)))
    shifted = np.abs(make_phantom(PhantomSpec(size=64, seed=7, bias_amplitude=0.3)))
    support = base > 1e-9
    ratio = np.zeros_like(base)
    ratio[support] = shifted[support] / base[support]
    assert ratio[support].min() >= 0.7 - 1e-9
    assert ratio[support].max() <= 1.3 + 1e-9
    # smoothness on a solid interior block
    inner = ratio[24:40, 24:40]
    if np.all(support[24:40, 24:40]):
        grad = max(np.abs(np.diff(inner, axis=0)).max(), np.abs(np.diff(inner, axis=1)).max())
        assert grad < 0.05


def test_contrast_exponent_darkens_midtones():
    base = np.abs(make_phantom(PhantomSpec(size=48, seed=9)))
    shifted = np.abs(make_phantom(PhantomSpec(size=48, seed=9, contrast_exponent=2.0)))
    mid = (base > 0.2) & (base < 0.8)
    assert np.all(shifted[mid] < base[mid])


def _fresh_ellipse(n, cy, cx, ay, ax, angle):
    """The ellipse with its coordinate grid built on every call."""
    y, x = np.mgrid[0:n, 0:n]
    yn = 2 * y / (n - 1) - 1
    xn = 2 * x / (n - 1) - 1
    ca, sa = np.cos(angle), np.sin(angle)
    u = (xn - cx) * ca + (yn - cy) * sa
    v = -(xn - cx) * sa + (yn - cy) * ca
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.float64)


def test_ellipse_grid_is_shared_and_read_only():
    """Ellipses of one size share one read-only grid and match the grid built afresh."""
    yn, xn = _unit_grid(16)
    assert _unit_grid(16)[0] is yn and _unit_grid(16)[1] is xn
    with pytest.raises(ValueError):
        yn[0, 0] = 0.0
    rng = np.random.default_rng(8)
    for n in (9, 16, 33):
        for _ in range(5):
            cy, cx = rng.uniform(-0.45, 0.45, size=2)
            ay, ax = rng.uniform(0.08, 0.38, size=2)
            angle = rng.uniform(0, np.pi)
            args = (n, cy, cx, ay, ax, angle)
            assert np.array_equal(_ellipse(*args), _fresh_ellipse(*args))


def test_different_seeds_differ():
    a = make_phantom(PhantomSpec(size=32, seed=0))
    b = make_phantom(PhantomSpec(size=32, seed=1))
    assert not np.array_equal(a, b)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(kind="nope")
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(size=4)
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(contrast_exponent=0.0)
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(bias_amplitude=1.0)
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(contrast_exponent=float("nan"))
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(bias_amplitude=float("nan"))
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(resolution_scale=1.5)
    with pytest.raises(InvalidArgumentError):
        PhantomSpec(contrast_exponent=float("inf"))
    for scale in (1e-300, 1e-12, 0.1):  # blur width 1/scale - 1 wider than size 8
        with pytest.raises(InvalidArgumentError):
            PhantomSpec(size=8, resolution_scale=scale)
    PhantomSpec(size=8, resolution_scale=1 / 9)  # blur width 8 = size is allowed
