import hashlib
from pathlib import Path

import numpy as np
import pytest

from mricalib import (
    UNetArch,
    UNetScorePrior,
    build_schedule,
    dsm_loss,
    init_weights,
    load_weights,
    low_band,
    modulate_bands,
    save_weights,
    train_toy_denoiser,
    tweedie_denoise,
    unet_forward,
)
from mricalib import unet
from mricalib.errors import FormatError, InvalidArgumentError
from mricalib.phantom import PhantomSpec, make_phantom
from mricalib.tensorio import read_tensor, write_tensor
from mricalib.unet import (
    _backward,
    _conv2d,
    _conv2d_bwd_input,
    _conv2d_bwd_weights,
    _decode,
    _encode,
    _forward,
)

TINY = UNetArch(widths=(3, 4), bottleneck=5, emb_steps=6)
C8 = UNetArch(widths=(8, 16), bottleneck=32, emb_steps=25)  # the acceptance-test prior

# float32 inference against the float64 walk, relative in L2 and in max over peak; the
# criterion-8 fixture network measured at most 1e-6 over its noise ladder
F32_RTOL = 1e-5


def _rand_image(rng, n=16):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# band split
# ---------------------------------------------------------------------------


def test_band_partition_is_exact():
    rng = np.random.default_rng(0)
    feat = rng.standard_normal((2, 3, 16, 16))
    low = low_band(feat, 0.25)
    high = feat - low
    # high is formed by subtraction, so the partition reassembles the
    # feature to the last bit or one rounding ulp
    assert np.max(np.abs((low + high) - feat)) <= 2.0**-50 * np.max(np.abs(feat))


def test_low_band_is_projection():
    rng = np.random.default_rng(1)
    feat = rng.standard_normal((1, 2, 16, 16))
    low = low_band(feat, 0.25)
    again = low_band(low, 0.25)
    assert np.max(np.abs(again - low)) <= 1e-12 * max(np.max(np.abs(low)), 1.0)


def test_zeroing_low_band_kills_low_energy():
    rng = np.random.default_rng(2)
    feat = rng.standard_normal((1, 1, 32, 32))
    mod = modulate_bands(feat, alpha=0.0, beta=1.0, cutoff=0.25)
    residual_low = low_band(mod, 0.25)
    assert np.max(np.abs(residual_low)) <= 1e-12 * np.max(np.abs(feat))


def test_low_band_scaling_quadruples_energy():
    rng = np.random.default_rng(3)
    feat = rng.standard_normal((1, 1, 32, 32))
    base_low = low_band(feat, 0.25)
    mod = modulate_bands(feat, alpha=2.0, beta=1.0, cutoff=0.25)
    mod_low = low_band(mod, 0.25)
    e_base = np.sum(base_low**2)
    e_mod = np.sum(mod_low**2)
    assert abs(e_mod - 4.0 * e_base) <= 1e-9 * e_base


# ---------------------------------------------------------------------------
# convolution: the one-GEMM form against one GEMM per tap
# ---------------------------------------------------------------------------


def _ref_conv2d(x, w, b):
    """Same-padded convolution as one GEMM per kernel tap over shifted input windows."""
    B, Cin, H, W = x.shape
    Cout, _, k, _ = w.shape
    p = k // 2
    xp = np.zeros((B, Cin, H + 2 * p, W + 2 * p))
    xp[:, :, p : p + H, p : p + W] = x
    acc = np.zeros((Cout, B, H, W))
    for i in range(k):
        for j in range(k):
            acc += np.tensordot(w[:, :, i, j], xp[:, :, i : i + H, j : j + W], axes=(1, 1))
    return acc.transpose(1, 0, 2, 3) + b[None, :, None, None], xp


def _ref_conv2d_bwd(dy, xp, w):
    B, Cout, H, W = dy.shape
    k = w.shape[2]
    p = k // 2
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + H, j : j + W]
            dw[:, :, i, j] = np.tensordot(dy, patch, axes=([0, 2, 3], [0, 2, 3]))
            dxp[:, :, i : i + H, j : j + W] += np.tensordot(
                w[:, :, i, j], dy, axes=(0, 1)
            ).transpose(1, 0, 2, 3)
    return dxp[:, :, p : p + H, p : p + W], dw, dy.sum(axis=(0, 2, 3))


def _c8_conv_shapes(size=64):
    """(Cin, Cout, side) of every conv the acceptance prior runs, and of the up- and
    skip-channel slices of each decoder level's first conv."""
    shapes = set()
    for name, shape in C8.param_shapes().items():
        if not name.endswith(".w"):
            continue
        cout, cin = shape[:2]
        level = name.split(".")[0]
        depth = C8.layer_count if level == "bot" else 0 if level == "head" else int(level[3:])
        shapes.add((cin, cout, size >> depth))
        if level.startswith("dec") and name.endswith("c1.w"):
            skip = C8.widths[depth]
            shapes |= {(cin - skip, cout, size >> depth), (skip, cout, size >> depth)}
    return sorted(shapes)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("cin,cout,side", _c8_conv_shapes())
def test_conv_matches_per_tap_reference_on_prior_shapes(cin, cout, side, batch):
    _check_conv_bit_identical(batch, cin, cout, side, side, 3)


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv_matches_per_tap_reference_non_square(kernel):
    _check_conv_bit_identical(3, 4, 5, 12, 20, kernel)


def _check_conv_bit_identical(batch, cin, cout, height, width, kernel):
    rng = np.random.default_rng(cin * 1000 + cout * 10 + kernel)
    x = rng.standard_normal((batch, cin, height, width))
    w = rng.standard_normal((cout, cin, kernel, kernel))
    b = rng.standard_normal(cout)
    y_ref, xp = _ref_conv2d(x, w, b)
    y, cache = _conv2d(x, w, b, True)
    assert np.array_equal(y, y_ref)
    dy = rng.standard_normal(y.shape)
    got = (_conv2d_bwd_input(dy, w), *_conv2d_bwd_weights(dy, cache))
    for got, want in zip(got, _ref_conv2d_bwd(dy, xp, w)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_identity_delta_matches_uncalibrated():
    rng = np.random.default_rng(4)
    w = init_weights(TINY, seed=1)
    x = _rand_image(rng)
    plain = unet_forward(x, 2, None, w)
    calibrated = unet_forward(x, 2, np.ones(4), w)
    assert np.array_equal(plain, calibrated)


def test_identity_vector_is_the_uncalibrated_network():
    """All ones equals None bit for bit, through unet_forward and a calibratable prior."""
    rng = np.random.default_rng(15)
    w = init_weights(C8, seed=16)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    x = _rand_image(rng, 32)
    sigma = float(C8.sigma_ladder()[7])
    assert np.array_equal(unet_forward(x, 7, np.ones(4), w), unet_forward(x, 7, None, w))
    calibrated = UNetScorePrior(w).evaluate(x, sigma, np.ones(4))
    assert np.array_equal(calibrated, UNetScorePrior(w).evaluate(x, sigma, None))
    raw = UNetScorePrior(w, calibratable=False).evaluate(x, sigma, None)
    assert np.array_equal(calibrated, raw)


def test_delta_changes_output():
    rng = np.random.default_rng(5)
    w = init_weights(TINY, seed=1)
    x = _rand_image(rng)
    plain = unet_forward(x, 2, None, w)
    scaled = unet_forward(x, 2, np.array([0.2, 1.0, 1.7, 1.0]), w)
    assert np.max(np.abs(plain - scaled)) > 1e-6


def test_bad_delta_rejected():
    w = init_weights(TINY, seed=1)
    with pytest.raises(InvalidArgumentError):
        unet_forward(np.zeros((16, 16), complex), 0, np.ones(6), w)
    with pytest.raises(InvalidArgumentError):
        unet_forward(np.zeros((16, 16), complex), 0, np.array([1.0, 3.0, 1.0, 1.0]), w)
    nan_entry = np.array([np.nan, 1.0, 1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        unet_forward(np.zeros((16, 16), complex), 0, nan_entry, w)
    with pytest.raises(InvalidArgumentError):
        UNetScorePrior(w).evaluate(np.zeros((16, 16), complex), 0.5, nan_entry)


def test_backward_cache_needs_uncalibrated_forward():
    w = init_weights(TINY, seed=1)
    x2 = np.zeros((1, 2, 16, 16))
    _, cache = _forward(x2, np.array([0]), w, want_cache=True)
    assert "dec0" in cache and "dec1" in cache

def test_indivisible_size_rejected():
    w = init_weights(TINY, seed=1)
    with pytest.raises(InvalidArgumentError):
        unet_forward(np.zeros((18, 18), complex), 0, None, w)


def test_embedding_index_changes_output():
    rng = np.random.default_rng(6)
    arch = UNetArch(widths=(3, 4), bottleneck=5, emb_steps=6)
    w = init_weights(arch, seed=2)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    x = _rand_image(rng)
    a = unet_forward(x, 0, None, w)
    b = unet_forward(x, 5, None, w)
    assert np.max(np.abs(a - b)) > 1e-8


def _reference_forward(x, t, delta, weights):
    """unet_forward in its concatenated form: modulate_bands, join, per-tap conv."""
    arch, P = weights.arch, weights.params

    def conv_relu(h, name):
        return np.maximum(_ref_conv2d(h, P[f"{name}.w"], P[f"{name}.b"])[0], 0.0)

    sigma = arch.sigma_ladder()[[t]]
    h = np.stack([x.real, x.imag])[None] / np.sqrt(1.0 + sigma**2)[:, None, None, None]
    skips = []
    for i in range(arch.layer_count):
        h = conv_relu(conv_relu(h, f"enc{i}.c1"), f"enc{i}.c2")
        skips.append(h)
        B, C, H, W = h.shape
        h = h.reshape(B, C, H // 2, 2, W // 2, 2).mean(axis=(3, 5))
    h = _ref_conv2d(h, P["bot.c1.w"], P["bot.c1.b"])[0] + P["emb"][[t]][:, :, None, None]
    h = conv_relu(np.maximum(h, 0.0), "bot.c2")
    for i in reversed(range(arch.layer_count)):
        skip = skips[i]
        if delta is not None:
            skip = modulate_bands(skip, delta[2 * i], delta[2 * i + 1], arch.band_cutoff)
        up = np.repeat(np.repeat(h, 2, axis=2), 2, axis=3)
        h = conv_relu(conv_relu(np.concatenate([up, skip], axis=1), f"dec{i}.c1"), f"dec{i}.c2")
    out = _ref_conv2d(h, P["head.w"], P["head.b"])[0]
    return out[0, 0] + 1j * out[0, 1]


def _f64_walk(x, t, delta, weights):
    """`UNetScorePrior`'s walk run in float64 with float64 weights and nothing reused:
    modulate_bands on the skips for a calibration vector, the raw skips for None or all
    ones, then the decoder.  The reference for the float32 prior."""
    arch = weights.arch
    if delta is not None and np.all(delta == 1.0):
        delta = None
    h, skips = _encode(np.stack([x.real, x.imag])[None], np.array([t]), weights)
    if delta is not None:
        skips = [modulate_bands(s, delta[2 * i], delta[2 * i + 1], arch.band_cutoff)
                 for i, s in enumerate(skips)]
    head = _decode(h, skips, weights)
    return head[0, 0] + 1j * head[0, 1]


def _assert_f32_close(got, want):
    assert got.dtype == np.complex128
    err = got - want
    assert np.linalg.norm(err) <= F32_RTOL * np.linalg.norm(want)
    assert np.max(np.abs(err)) <= F32_RTOL * np.max(np.abs(want))


def test_calibrated_walk_is_the_concatenated_form():
    """The float64 walk is the concatenated form bit for bit for None and every vector but
    all ones, which joins the raw skips where the form modulates by 1 and agrees to 1e-13;
    the float32 network stays within F32_RTOL of it."""
    rng = np.random.default_rng(13)
    arch = UNetArch(widths=(3, 4, 4), bottleneck=5, emb_steps=6)
    w = init_weights(arch, seed=14)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    x = _rand_image(rng)
    sigma = float(arch.sigma_ladder()[2])
    prior = UNetScorePrior(w)

    assert np.array_equal(_f64_walk(x, 2, None, w), _reference_forward(x, 2, None, w))
    _assert_f32_close(unet_forward(x, 2, None, w), _reference_forward(x, 2, None, w))

    base = np.array([1.0, 0.9, 1.1, 1.0, 0.8, 1.2])
    probes = [base, np.zeros(6), np.full(6, 2.0), np.ones(6)]
    for j in range(base.size):  # central-difference probes of every level's (alpha, beta)
        for step in (0.01, -0.01):
            probe = base.copy()
            probe[j] += step
            probes.append(probe)
    for delta in probes:
        want = _reference_forward(x, 2, delta, w)
        walked = _f64_walk(x, 2, delta, w)
        if np.all(delta == 1.0):
            assert np.max(np.abs(walked - want)) <= 1e-13 * np.max(np.abs(want))
        else:
            assert np.array_equal(walked, want), delta
        got = unet_forward(x, 2, delta, w)
        _assert_f32_close(got, want)
        assert np.array_equal(prior.evaluate(x, sigma, delta), -got / sigma)


@pytest.mark.parametrize("calibratable", [True, False])
def test_float32_prior_matches_float64_walk_on_prior_shapes(calibratable):
    """On the acceptance prior's shapes, over the noise ladder and with calibration on and
    off, the float32 prior stays within F32_RTOL of the float64 walk."""
    rng = np.random.default_rng(17)
    w = init_weights(C8, seed=18)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    sigmas = C8.sigma_ladder()
    prior = UNetScorePrior(w, calibratable=calibratable)
    clean = make_phantom(PhantomSpec(size=64, seed=19, contrast_exponent=1.5, bias_amplitude=0.3))
    deltas = [None, np.ones(4), np.array([1.1, 0.9, 0.8, 1.2]), np.array([0.0, 2.0, 1.3, 0.7])]
    for idx in (0, 8, 16, 24):  # sigma from 1 down to 0.01
        x = clean + sigmas[idx] * _rand_image(rng, 64)
        for delta in deltas:
            used = delta if calibratable else None
            want = _f64_walk(x, idx, used, w)
            _assert_f32_close(-sigmas[idx] * prior.evaluate(x, float(sigmas[idx]), delta), want)
            _assert_f32_close(unet_forward(x, idx, used, w), want)


def test_inference_runs_in_float32(monkeypatch):
    """The encoder state, the memoised LOW bands and every conv's input, kernel and
    output are float32, calibrated or not; evaluate returns complex128."""
    seen = set()
    conv = unet._conv2d

    def recording_conv(x, w, b, want_cache):
        y, cache = conv(x, w, b, want_cache)
        seen.add((x.dtype, w.dtype, y.dtype))
        return y, cache

    monkeypatch.setattr(unet, "_conv2d", recording_conv)
    rng = np.random.default_rng(20)
    w = init_weights(TINY, seed=21)
    prior = UNetScorePrior(w)
    x = _rand_image(rng)
    for delta in (None, np.array([1.1, 0.9, 0.8, 1.2]), np.array([1.1, 0.9, 0.8, 1.25])):
        assert prior.evaluate(x, 0.5, delta).dtype == np.complex128
    enc = prior._encoded
    held = [enc.h, *enc.skips, *enc.lows]
    assert len(held) == 1 + 2 + 2
    assert all(a.dtype == np.float32 for a in held)
    assert seen == {(np.dtype(np.float32),) * 3}


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_hand_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    w = init_weights(TINY, seed=3)
    x = rng.standard_normal((2, 2, 8, 8))
    t = np.array([1, 4])
    target = rng.standard_normal((2, 2, 8, 8))

    def loss():
        out, _ = _forward(x, t, w)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = _forward(x, t, w, want_cache=True)
    grads = _backward(out - target, cache, w)

    h = 1e-6
    for name in TINY.param_shapes():
        p = w.params[name]
        for _ in range(3):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            p[idx] += h
            lp = loss()
            p[idx] -= 2 * h
            lm = loss()
            p[idx] += h
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[name][idx]) <= 1e-5 * max(abs(fd), 1e-8), name


THREE_LEVELS = UNetArch(widths=(4, 6, 8), bottleneck=10, emb_steps=25)


@pytest.mark.parametrize("arch,delta", [
    (C8, np.ones(4)),
    (C8, np.array([1.1, 0.8, 0.9, 1.3])),
    (THREE_LEVELS, np.ones(6)),
    (THREE_LEVELS, np.array([1.1, 0.8, 0.9, 1.3, 1.2, 0.7])),
], ids=["identity", "perturbed", "three-levels-identity", "three-levels-perturbed"])
def test_delta_vjp_matches_finite_differences_of_float64_walk(arch, delta):
    """The float32 prior's Re<v, d evaluate / d delta_j> equals central differences of the
    float64 walk within 1e-4 of the largest entry, at a high and a low noise level, on the
    acceptance prior and on three levels of distinct widths."""
    rng = np.random.default_rng(22)
    w = init_weights(arch, seed=23)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    sigmas = arch.sigma_ladder()
    prior = UNetScorePrior(w)
    clean = make_phantom(PhantomSpec(size=64, seed=24, contrast_exponent=1.5, bias_amplitude=0.3))
    h = 1e-6  # small enough that no ReLU of the walk switches inside a probe pair
    for idx in (3, 20):
        sigma = float(sigmas[idx])
        x = clean + sigma * _rand_image(rng, 64)
        v = _rand_image(rng, 64)

        def value(d):
            return np.real(np.vdot(v, -_f64_walk(x, idx, d, w) / sigma))

        fd = np.array([value(delta + h * e) - value(delta - h * e)
                       for e in np.eye(delta.size)]) / (2 * h)
        got = prior.delta_vjp(x, sigma, delta, v)
        assert np.max(np.abs(got - fd)) <= 1e-4 * np.max(np.abs(fd)), (idx, got, fd)


# ---------------------------------------------------------------------------
# weight I/O
# ---------------------------------------------------------------------------


def test_weight_roundtrip(tmp_path):
    w = init_weights(TINY, seed=4)
    path = tmp_path / "w.bt"
    save_weights(path, w)
    back = load_weights(path)
    assert back.arch == w.arch
    for name, p in w.params.items():
        assert np.array_equal(back.params[name], p)


def test_truncated_weights_rejected(tmp_path):
    w = init_weights(TINY, seed=4)
    path = tmp_path / "w.bt"
    save_weights(path, w)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FormatError):
        load_weights(path)


def test_descriptor_mismatch_rejected(tmp_path):
    w = init_weights(TINY, seed=4)
    path = tmp_path / "w.bt"
    save_weights(path, w)
    arch_path = f"{path}.arch"
    text = Path(arch_path).read_text().replace("widths=3,4", "widths=3,4,8")
    Path(arch_path).write_text(text)
    with pytest.raises(FormatError, match="payload length"):
        load_weights(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_payload_rejected(tmp_path, value):
    path = tmp_path / "w.bt"
    save_weights(path, init_weights(TINY, seed=4))
    flat = read_tensor(path)
    flat[7] = value
    write_tensor(path, flat)
    with pytest.raises(FormatError, match="non-finite"):
        load_weights(path)


def test_prior_rejects_weights_beyond_float32():
    """A weight the float32 cast would turn into inf is rejected; the largest float32 is not."""
    w = init_weights(TINY, seed=4)
    for value in (1e39, -1e39, np.nan):
        w.params["head.b"][1] = value
        with pytest.raises(InvalidArgumentError, match="head.b"):
            UNetScorePrior(w)
    w.params["head.b"][1] = -float(np.finfo(np.float32).max)
    UNetScorePrior(w)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _toy_dataset(n=6, size=16):
    return [make_phantom(PhantomSpec(size=size, seed=s)) for s in range(n)]


def test_zero_epochs_returns_initialization():
    data = _toy_dataset()
    w = train_toy_denoiser(data, epochs=0, seed=5, arch=TINY)
    w0 = init_weights(TINY, seed=5)
    for name in w.params:
        assert np.array_equal(w.params[name], w0.params[name])


def test_training_determinism():
    data = _toy_dataset()
    w1 = train_toy_denoiser(data, epochs=3, seed=6, arch=TINY)
    w2 = train_toy_denoiser(data, epochs=3, seed=6, arch=TINY)
    for name in w1.params:
        assert np.array_equal(w1.params[name], w2.params[name])


def test_training_reduces_heldout_loss():
    arch = UNetArch(widths=(8, 16), bottleneck=24, emb_steps=8)
    data = _toy_dataset(n=8, size=32)
    held = [make_phantom(PhantomSpec(size=32, seed=50 + s)) for s in range(3)]
    w0 = init_weights(arch, seed=7)
    trained = train_toy_denoiser(data, epochs=200, seed=7, arch=arch, lr=0.3)
    loss0 = dsm_loss(w0, held, seed=11)
    loss1 = dsm_loss(trained, held, seed=11)
    assert loss1 < 0.5 * loss0


# SHA-256 prefixes of _forward's output, _backward's gradients and one train_toy_denoiser
# epoch in test_training_arithmetic_is_float64, recorded before inference moved to float32.
# OpenBLAS kernels sum in different orders, so each kernel family has its own row.
TRAINING_DIGESTS = {
    "SkylakeX": ("3b1b373618ab6bd4", "5ccf4a46ac7aa060", "fc15e96a087591fb"),
    "Haswell, Zen": ("3b1b373618ab6bd4", "ecd165f88246819f", "824706963d03b2cb"),
    "Sandybridge": ("dbe892ebb9a621dd", "133ca5aa3682a22d", "ee4dc486ab6fee6a"),
}


def test_training_arithmetic_is_float64():
    """_forward, _backward and one training epoch stay float64 and bit-identical to the
    digests recorded before inference moved to float32."""
    def digest(*arrays):
        assert all(a.dtype == np.float64 for a in arrays)
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]

    rng = np.random.default_rng(21)
    w = init_weights(TINY, seed=22)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    out, cache = _forward(rng.standard_normal((2, 2, 8, 8)), np.array([1, 4]), w, want_cache=True)
    grads = _backward(rng.standard_normal(out.shape), cache, w)
    data = [make_phantom(PhantomSpec(size=8, seed=s)) for s in range(4)]
    trained = train_toy_denoiser(data, epochs=1, seed=23, arch=TINY, batch_size=2)
    got = (digest(out), digest(*(grads[k] for k in sorted(grads))),
           digest(*(trained.params[k] for k in sorted(trained.params))))
    assert got in TRAINING_DIGESTS.values()


def test_empty_dataset_rejected():
    with pytest.raises(InvalidArgumentError):
        train_toy_denoiser([], epochs=1)


def test_dsm_loss_needs_draws():
    with pytest.raises(InvalidArgumentError):
        dsm_loss(init_weights(TINY), [])


@pytest.mark.parametrize("bad", [
    {"emb_steps": 0}, {"sigma_min": 0.0}, {"sigma_min": 2.0}, {"sigma_min": float("nan")},
    {"sigma_max": float("inf")}, {"sigma_max": float("nan")}, {"widths": (4, 0)},
    {"bottleneck": 0}, {"widths": ()}, {"band_cutoff": 1.0},
], ids=lambda bad: repr(bad))
def test_bad_arch_rejected(bad):
    with pytest.raises(InvalidArgumentError):
        UNetArch(**bad)


# ---------------------------------------------------------------------------
# score adapter
# ---------------------------------------------------------------------------


def test_prior_adapter_tweedie_consistency():
    rng = np.random.default_rng(8)
    w = init_weights(TINY, seed=9)
    prior = UNetScorePrior(w)
    assert prior.layer_count == 2
    x = _rand_image(rng)
    sigma = float(w.arch.sigma_ladder()[3])
    out = tweedie_denoise(x, sigma, prior, np.ones(4))
    eps_hat = unet_forward(x, 3, np.ones(4), w)
    assert np.allclose(out, x - sigma * eps_hat, atol=1e-12)


def test_uncalibratable_adapter_ignores_delta():
    rng = np.random.default_rng(9)
    w = init_weights(TINY, seed=10)
    prior = UNetScorePrior(w, calibratable=False)
    assert prior.layer_count == 0
    x = _rand_image(rng)
    a = prior.evaluate(x, 0.5, None)
    b = prior.evaluate(x, 0.5, np.array([0.0, 2.0, 0.5, 1.5]))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
def test_prior_rejects_non_finite_sigma(sigma):
    prior = UNetScorePrior(init_weights(TINY, seed=1))
    with pytest.raises(InvalidArgumentError):
        prior.evaluate(np.zeros((16, 16), complex), sigma, np.ones(4))
    with pytest.raises(InvalidArgumentError):
        prior.delta_vjp(np.zeros((16, 16), complex), sigma, np.ones(4), np.ones((16, 16)))


def test_prior_score_is_zero_at_non_positive_sigma():
    prior = UNetScorePrior(init_weights(TINY, seed=1))
    x = _rand_image(np.random.default_rng(10))
    for sigma in (0.0, -0.5):
        assert np.array_equal(prior.evaluate(x, sigma, np.ones(4)), np.zeros_like(x))
        assert np.array_equal(prior.delta_vjp(x, sigma, np.ones(4), x), np.zeros(4))


def test_memoized_evaluate_matches_fresh_forward():
    """Every evaluation equals a fresh unet_forward bit for bit, whatever it reuses."""
    rng = np.random.default_rng(11)
    arch = UNetArch(widths=(3, 4, 4), bottleneck=5, emb_steps=6)
    w = init_weights(arch, seed=12)
    w.params["emb"] = rng.standard_normal(w.params["emb"].shape)
    sigmas = arch.sigma_ladder()
    prior = UNetScorePrior(w)

    def check(x, sigma, delta):
        used = delta if prior.calibratable else None
        idx = int(np.argmin(np.abs(sigmas - sigma)))
        eps_hat = unet_forward(x, idx, used, w)
        _assert_f32_close(eps_hat, _f64_walk(x, idx, used, w))
        expected = -eps_hat / sigma
        assert np.array_equal(prior.evaluate(x, sigma, delta), expected)
        return expected

    def central_difference_probes(x, sigma, delta, h=0.01):
        for j in range(delta.size):
            for step in (h, -h):
                probe = delta.copy()
                probe[j] += step
                check(x, sigma, probe)

    x, other = _rand_image(rng), _rand_image(rng)
    sigma = float(sigmas[3])
    delta = np.array([1.0, 0.9, 1.1, 1.0, 0.8, 1.2])
    central_difference_probes(x, sigma, delta)
    updated = delta + np.array([0.02, -0.01, 0.03, 0.01, -0.02, 0.01])
    check(x, sigma, updated)
    check(other, sigma, updated)
    check(x, sigma, updated)
    central_difference_probes(other, sigma, updated)
    check(x, sigma, updated)

    nudged = x.copy()
    nudged.real[5, 7] = np.nextafter(nudged.real[5, 7], np.inf)
    check(nudged, sigma, updated)
    check(x, sigma, updated)
    check(x.reshape(8, 32), sigma, updated)  # same bytes, another shape
    check(x, sigma, updated)

    # same input and vector at another ladder index: only the noise index differs
    check(x, float(sigmas[4]), updated)
    check(x, sigma, updated)

    ones = np.ones(6)
    modulated = check(x, sigma, ones)
    prior.calibratable = False
    raw = check(x, sigma, ones)
    # the identity runs the uncalibrated network, so both share one output
    assert np.array_equal(modulated, raw)
    check(x, sigma, None)
    prior.calibratable = True
    check(x, sigma, ones)
