"""Small convolutional U-Net noise predictor with calibratable skips.

The network maps a 2-channel (re, im) field to a 2-channel noise estimate
and is conditioned on a discrete noise-level index through a learned
per-channel bias table at the bottleneck.  Each skip feature F_l can be
recomposed as  alpha_l * LOW(F_l) + beta_l * (F_l - LOW(F_l))  where LOW
keeps DFT coefficients inside a radius `band_cutoff` * Nyquist (the high
band is formed by subtraction, so the band partition is exact).

Each encoder level, the bottleneck and each decoder level is one block,
conv-ReLU-conv-ReLU (`_block`, `_block_bwd`); the bottleneck adds its
noise-level embedding after the first conv, and a head conv ends the net.
Every conv is KERNEL x KERNEL, and the net has IN_CHANNELS = 2 channels in
and out; `UNetArch` declares the rest with its help and rules
(settings.py), and `train` generates its architecture flags from it.

A calibration vector other than all ones modulates each skip before the
decoder joins it; the decoder walk (`_decode`, `_decode_bwd`) is the one
training runs, and its skip gradients give the calibration gradient.  The
all-ones vector is the identity and runs the uncalibrated network itself,
bit for bit, in evaluations and in the calibration gradient alike.  Each
conv is one GEMM per sample whose tap outputs are added shifted,
bit-identical to one GEMM per tap.  LOW runs on the half spectrum of a real
FFT.

Everything is plain numpy.  Inference (`UNetScorePrior`, `unet_forward`)
runs in float32 on weights cast once, within 1e-5 relative of the float64
walk; training, `dsm_loss` and the weight files stay float64.  The layer
code computes in its input's dtype, reads kernels from the weights, and
fills the cache dict its caller passes (None keeps none) with padded conv
inputs and ReLU masks.  Training is denoising score matching with hand-
derived convolution gradients and plain SGD; the calibration gradient (the
pullback of `UNetScorePrior.linearize`) runs the same backward without the
weight halves, from the decoder walk of the same call, and stops at the
skips.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np


from .errors import FormatError, InvalidArgumentError
from .priors import ScorePrior, validate_delta
from .sampler import build_schedule
from .settings import COUNT, POSITIVE, SEED, Rule, check_settings, integer_at_least, setting
from .tensorio import read_tensor, write_tensor

IN_CHANNELS = 2  # (re, im), in and out
KERNEL = 3  # side of every conv kernel


@dataclass(frozen=True)
class UNetArch:
    """Architecture descriptor; with IN_CHANNELS and KERNEL it fully determines parameter
    names and shapes."""

    widths: tuple[int, ...] = setting((8, 16), "encoder widths, one per skip layer")
    bottleneck: int = setting(32, "bottleneck width", COUNT)
    emb_steps: int = setting(25, "rows of the noise-level embedding table", COUNT)
    sigma_min: float = setting(0.01, "lowest level of the ladder the embedding indexes", POSITIVE)
    sigma_max: float = setting(1.0, "highest level of that ladder", POSITIVE)
    band_cutoff: float = setting(0.25, "low/high split radius as a fraction of Nyquist",
                                 Rule("a number in (0, 1)", lambda v: not 0 < v < 1))

    def __post_init__(self):
        check_settings(self)
        if not self.widths or any(COUNT.reject(w) for w in self.widths):
            raise InvalidArgumentError(f"widths must be one or more integers >= 1, got {self.widths}")
        if not self.sigma_min < self.sigma_max:
            raise InvalidArgumentError(
                f"need sigma_min < sigma_max, got {self.sigma_min}, {self.sigma_max}")

    @property
    def layer_count(self) -> int:
        return len(self.widths)

    def sigma_ladder(self) -> np.ndarray:
        return build_schedule(self.emb_steps, self.sigma_max, self.sigma_min)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        k = KERNEL
        shapes: dict[str, tuple[int, ...]] = {}

        def block(name: str, cin: int, cout: int) -> None:
            shapes[f"{name}.c1.w"] = (cout, cin, k, k)
            shapes[f"{name}.c1.b"] = (cout,)
            shapes[f"{name}.c2.w"] = (cout, cout, k, k)
            shapes[f"{name}.c2.b"] = (cout,)

        prev = IN_CHANNELS
        for i, w in enumerate(self.widths):
            block(f"enc{i}", prev, w)
            prev = w
        block("bot", prev, self.bottleneck)
        prev = self.bottleneck
        for i in reversed(range(self.layer_count)):
            block(f"dec{i}", prev + self.widths[i], self.widths[i])
            prev = self.widths[i]
        shapes["head.w"] = (IN_CHANNELS, prev, k, k)
        shapes["head.b"] = (IN_CHANNELS,)
        shapes["emb"] = (self.emb_steps, self.bottleneck)
        return shapes


@dataclass
class UNetWeights:
    arch: UNetArch
    params: dict[str, np.ndarray]


def init_weights(arch: UNetArch, seed: int = 0) -> UNetWeights:
    """He-normal kernels, zero biases, zero embedding table."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in arch.param_shapes().items():
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            params[name] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        else:
            params[name] = np.zeros(shape)
    return UNetWeights(arch, params)


# ---------------------------------------------------------------------------
# layer primitives (forward + hand-derived backward)
# ---------------------------------------------------------------------------


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padded 2-D convolution, one GEMM per sample.  x: (B, Cin, H, W).

    The GEMM multiplies every tap's (Cout, Cin) kernel slice with the
    whole padded sample at once; the k² tap outputs are then added, shifted,
    into a zeroed accumulator in row-major tap order, and the bias last.
    Each output is therefore the same sum, in the same order, as one GEMM
    per tap over shifted input windows, so the result is bit-identical to
    that form.  Returns y and xp, the padded input `_conv2d_bwd_weights` reads.
    """
    B, Cin, H, W = x.shape
    Cout, _, k, _ = w.shape
    p = k // 2
    Hp, Wp = H + 2 * p, W + 2 * p
    xp = np.zeros((B, Cin, Hp, Wp), dtype=x.dtype)
    xp[:, :, p : p + H, p : p + W] = x
    taps_w = w.transpose(2, 3, 0, 1).reshape(k * k * Cout, Cin)
    y = np.zeros((B, Cout, H, W), dtype=x.dtype)
    for n in range(B):
        taps = (taps_w @ xp[n].reshape(Cin, Hp * Wp)).reshape(k, k, Cout, Hp, Wp)
        for i in range(k):
            for j in range(k):
                y[n] += taps[i, j, :, i : i + H, j : j + W]
    y += b[None, :, None, None]
    return y, xp


def _conv2d_bwd_input(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of `_conv2d` with kernel w, from the output gradient dy.

    One GEMM per sample and kernel row, (k·Cin, Cout) by the sample's
    output gradient, adds the tap results, shifted, into the padded grid
    in row-major tap order: the same sums in the same order as one GEMM
    per tap.  A GEMM per kernel row keeps the tap buffer at k·Cin·H·W; one
    per sample would hold k²·Cin·H·W, 7 MB at the widest decoder conv of a
    64² training batch, which raised training's peak memory by 10 %.
    """
    B, Cout, H, W = dy.shape
    _, Cin, k, _ = w.shape
    p = k // 2
    row_wt = w.transpose(2, 3, 1, 0).reshape(k, k * Cin, Cout)
    dxp = np.zeros((B, Cin, H + 2 * p, W + 2 * p), dtype=dy.dtype)
    for n in range(B):
        dy_n = dy[n].reshape(Cout, H * W)
        for i in range(k):
            taps = (row_wt[i] @ dy_n).reshape(k, Cin, H, W)
            for j in range(k):
                dxp[n, :, i : i + H, j : j + W] += taps[j]
    return dxp[:, :, p : p + H, p : p + W]


def _conv2d_bwd_weights(dy: np.ndarray, xp: np.ndarray, w: np.ndarray):
    """Kernel and bias gradients of `_conv2d` with kernel w, from its padded input xp."""
    H, W = dy.shape[2:]
    k = w.shape[2]
    dw = np.empty_like(w)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + H, j : j + W]
            dw[:, :, i, j] = np.tensordot(dy, patch, axes=([0, 2, 3], [0, 2, 3]))
    return dw, dy.sum(axis=(0, 2, 3))


def _pool2(x):
    """2x2 mean pooling as ((a00 + a01) + (a10 + a11)) / 4 over the four strided slices.

    That order is pinned: it is the order of numpy's reshape(..., 2, ..., 2).mean(axis=(3, 5)),
    which the result equals bit for bit.
    """
    return _up2_bwd(x) / 4.0


def _up2(x):
    """Each pixel copied into its 2x2 block, one strided slice at a time."""
    B, C, H, W = x.shape
    out = np.empty((B, C, 2 * H, 2 * W), dtype=x.dtype)
    for i in (0, 1):
        for j in (0, 1):
            out[:, :, i::2, j::2] = x
    return out


def _up2_bwd(dy):
    """Sum of each 2x2 block, (a00 + a01) + (a10 + a11), in _pool2's pinned order."""
    return (dy[:, :, 0::2, 0::2] + dy[:, :, 0::2, 1::2]) + (dy[:, :, 1::2, 0::2] + dy[:, :, 1::2, 1::2])


def low_band(feat: np.ndarray, cutoff: float) -> np.ndarray:
    """Project real feature maps onto DFT radii <= cutoff * Nyquist (last two axes).

    The disc is symmetric under f -> -f, so the half spectrum of a real
    transform carries the whole projection; the result keeps the input dtype.
    """
    H, W = feat.shape[-2:]
    fy = np.fft.fftfreq(H) * 2.0  # Nyquist normalized to |1|
    fx = np.fft.rfftfreq(W) * 2.0
    keep = (fy[:, None] ** 2 + fx[None, :] ** 2) <= cutoff**2
    return np.fft.irfft2(np.fft.rfft2(feat, axes=(-2, -1)) * keep, s=(H, W), axes=(-2, -1))


def _mix_bands(feat: np.ndarray, low: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """alpha * LOW + beta * (F - LOW) from F and its LOW band."""
    return alpha * low + beta * (feat - low)


def modulate_bands(feat: np.ndarray, alpha: float, beta: float, cutoff: float) -> np.ndarray:
    """alpha * LOW(F) + beta * HIGH(F), with HIGH = F - LOW so the partition is exact."""
    return _mix_bands(feat, low_band(feat, cutoff), alpha, beta)


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------


def _check_input(shape: tuple[int, ...], t_idx: np.ndarray, arch: UNetArch) -> None:
    L = arch.layer_count
    _, C, H, W = shape
    if C != IN_CHANNELS:
        raise InvalidArgumentError(f"expected {IN_CHANNELS} channels, got {C}")
    if H % (1 << L) or W % (1 << L):
        raise InvalidArgumentError(f"spatial size {H}x{W} not divisible by {1 << L}")
    if np.any(t_idx < 0) or np.any(t_idx >= arch.emb_steps):
        raise InvalidArgumentError("noise-level index out of embedding range")


def _block(name: str, h: np.ndarray, weights: UNetWeights, cache: dict | None = None,
           add: np.ndarray | None = None) -> np.ndarray:
    """Conv c1, plus `add` if given (the bottleneck's embedding), ReLU, conv c2, ReLU.

    A cache keeps (xp1, r1, xp2, r2) for `_block_bwd`: padded conv inputs, ReLU output masks.
    """
    P = weights.params
    h, xp1 = _conv2d(h, P[f"{name}.c1.w"], P[f"{name}.c1.b"])
    if add is not None:
        h = h + add
    h = np.maximum(h, 0.0)
    r1 = h > 0 if cache is not None else None
    h, xp2 = _conv2d(h, P[f"{name}.c2.w"], P[f"{name}.c2.b"])
    h = np.maximum(h, 0.0)
    if cache is not None:
        cache[name] = (xp1, r1, xp2, h > 0)
    return h


def _block_bwd(name: str, dh: np.ndarray, cache: dict, weights: UNetWeights,
               grads: dict | None = None, inputs: slice = slice(None)):
    """Backward of `_block`, weight gradients into `grads` if given; returns the gradients at
    its `inputs` channels and at c1's output."""
    xp1, r1, xp2, r2 = cache[name]
    w1, w2 = weights.params[f"{name}.c1.w"], weights.params[f"{name}.c2.w"]
    d_c2 = dh * r2
    d_c1 = _conv2d_bwd_input(d_c2, w2) * r1
    if grads is not None:
        grads[f"{name}.c2.w"], grads[f"{name}.c2.b"] = _conv2d_bwd_weights(d_c2, xp2, w2)
        grads[f"{name}.c1.w"], grads[f"{name}.c1.b"] = _conv2d_bwd_weights(d_c1, xp1, w1)
    return _conv2d_bwd_input(d_c1, w1[:, inputs]), d_c1


def _encode(x: np.ndarray, t_idx: np.ndarray, weights: UNetWeights, cache: dict | None = None):
    """Preconditioning, encoder levels and the embedded bottleneck: returns (h, skips).

    None of this depends on the calibration vector.
    """
    arch = weights.arch

    # precondition: keep activations O(1) across noise levels; the factor is
    # cast so that it does not promote a float32 input to float64
    sigma_t = arch.sigma_ladder()[t_idx]
    h = x / np.sqrt(1.0 + sigma_t**2).astype(x.dtype)[:, None, None, None]

    skips = []
    for i in range(arch.layer_count):
        skips.append(_block(f"enc{i}", h, weights, cache))
        h = _pool2(skips[-1])
    return _block("bot", h, weights, cache, weights.params["emb"][t_idx][:, :, None, None]), skips


def _decode(h: np.ndarray, skips: list[np.ndarray], weights: UNetWeights,
            cache: dict | None = None) -> np.ndarray:
    """Decoder levels deepest first (upsample h, join the level's skip, one block), then
    the head conv.  A cache keeps what `_decode_bwd` needs."""
    for i in reversed(range(weights.arch.layer_count)):
        h = _block(f"dec{i}", np.concatenate([_up2(h), skips[i]], axis=1), weights, cache)
    out, xp = _conv2d(h, weights.params["head.w"], weights.params["head.b"])
    if cache is not None:
        cache["head"] = xp
    return out


def _decode_bwd(dout: np.ndarray, cache: dict, weights: UNetWeights, grads: dict | None = None):
    """Backward of `_decode`, weight gradients into `grads` if given; returns the gradients at
    the bottleneck output and at each skip.

    Without `grads` nothing reads the bottleneck's gradient: the deepest level forms its skip
    channels' gradient only, and the first return value is None.
    """
    dh = _conv2d_bwd_input(dout, weights.params["head.w"])
    if grads is not None:
        grads["head.w"], grads["head.b"] = _conv2d_bwd_weights(dout, cache["head"],
                                                               weights.params["head.w"])
    dskips = []
    for i, skip_ch in enumerate(weights.arch.widths):
        skip_only = grads is None and i == weights.arch.layer_count - 1
        dh, _ = _block_bwd(f"dec{i}", dh, cache, weights, grads,
                           slice(-skip_ch, None) if skip_only else slice(None))
        dskips.append(dh[:, -skip_ch:])  # the joined input is [up, skip]
        dh = None if skip_only else _up2_bwd(dh[:, :-skip_ch])
    return dh, dskips


def _forward(x: np.ndarray, t_idx: np.ndarray, weights: UNetWeights, cache: dict | None = None):
    """Batched uncalibrated pass for training.  x: (B, IN_CHANNELS, H, W); t_idx: (B,) int.
    A cache keeps what `_backward` needs."""
    t_idx = np.asarray(t_idx, dtype=np.int64)
    _check_input(x.shape, t_idx, weights.arch)
    if cache is not None:
        cache["t_idx"] = t_idx
    h, skips = _encode(x, t_idx, weights, cache)
    return _decode(h, skips, weights, cache)


def _backward(dout: np.ndarray, cache: dict, weights: UNetWeights) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all parameters, from `_forward`'s cache.

    The skip branch gradient flows through the raw skip tensor.
    """
    grads = {name: np.zeros_like(p) for name, p in weights.params.items()}
    dh, dskips = _decode_bwd(dout, cache, weights, grads)
    dh, d_emb = _block_bwd("bot", dh, cache, weights, grads)
    np.add.at(grads["emb"], cache["t_idx"], d_emb.sum(axis=(2, 3)))
    for i in reversed(range(weights.arch.layer_count)):
        dh, _ = _block_bwd(f"enc{i}", _up2(dh) / 4.0 + dskips[i], cache, weights, grads)
    return grads


def unet_forward(
    x: np.ndarray,
    t: int,
    delta: np.ndarray | None,
    weights: UNetWeights,
) -> np.ndarray:
    """Run the network on one complex image; returns the complex 2-channel output.

    This is `UNetScorePrior`'s float32 walk on a fresh prior.
    """
    x = np.asarray(x, dtype=np.complex128)
    return UNetScorePrior(weights)._walk(x, t, delta)[0]


class UNetScorePrior(ScorePrior):
    """Score adapter: the network predicts the noise, score = -prediction / sigma.

    The noise level is snapped to the nearest entry of the ladder the
    network was trained on.  With `calibratable=False` the prior reports
    layer_count 0 and always runs the raw (unmodulated) forward pass.

    `evaluate` and `linearize` run one walk: the encoder, then the decoder
    on the raw skips for None or the all-ones vector, else on each skip
    modulated by its level's (alpha, beta).  So the identity is the
    uncalibrated network bit for bit, and an uncalibrated evaluation
    computes no LOW band.  `linearize` keeps that walk's backward cache in
    its pullback, which runs the decoder backward alone.

    The network runs in float32 on a copy of the weights cast once here;
    the output goes back to complex128 before it is returned, and
    lies within 1e-5 relative of the float64 walk.  Later changes to the
    caller's `weights.params` do not reach the prior, so build a new one.
    """

    def __init__(self, weights: UNetWeights, calibratable: bool = True):
        limit = float(np.finfo(np.float32).max)
        for name, p in weights.params.items():
            if not np.all(np.abs(p) <= limit):  # NaN fails too
                raise InvalidArgumentError(
                    f"weight {name} is not finite or exceeds the float32 range {limit:g}")
        self._weights = UNetWeights(
            weights.arch, {name: p.astype(np.float32) for name, p in weights.params.items()})
        self.calibratable = calibratable
        self._sigmas = weights.arch.sigma_ladder()

    @property
    def layer_count(self) -> int:
        return self._weights.arch.layer_count if self.calibratable else 0

    def evaluate(self, x, sigma, delta=None):
        x = np.asarray(x, dtype=np.complex128)
        idx = self._index(sigma)
        if idx is None:
            return np.zeros_like(x)
        eps_hat, _, _ = self._walk(x, idx, delta if self.calibratable else None)
        return -eps_hat / sigma

    def linearize(self, x, sigma, delta):
        """`evaluate(x, sigma, delta)` and its pullback v -> Re<v, d evaluate / d delta_j> over j.

        The pullback backpropagates through the walk's decoder (raw skips for
        all ones, modulated skips otherwise) to each skip's gradient d_l:
        d alpha_l = <d_l, LOW_l>, d beta_l = <d_l, F_l - LOW_l>.  Follows
        `evaluate`'s sigma contract; at sigma <= 0 the pullback returns zeros.
        """
        x = np.asarray(x, dtype=np.complex128)
        W, L = self._weights, self.layer_count
        idx = self._index(sigma)
        if idx is None:
            return np.zeros_like(x), lambda v: np.zeros(2 * L)
        cache: dict = {}
        eps_hat, skips, lows = self._walk(x, idx, validate_delta(delta, L), cache)

        def pullback(v):
            v2 = np.stack([v.real, v.imag], dtype=np.float32)[None]
            _, dskips = _decode_bwd(v2, cache, W)
            grad = np.empty(2 * L)
            for i in range(L):
                grad[2 * i] = np.sum(dskips[i] * lows[i], dtype=np.float64)
                grad[2 * i + 1] = np.sum(dskips[i] * (skips[i] - lows[i]), dtype=np.float64)
            return -grad / sigma

        return -eps_hat / sigma, pullback

    def _index(self, sigma: float) -> int | None:
        """The ladder index nearest sigma; None at sigma <= 0, where the score is zero."""
        if not np.isfinite(sigma):
            raise InvalidArgumentError(f"sigma must be finite, got {sigma}")
        return None if sigma <= 0 else int(np.argmin(np.abs(self._sigmas - sigma)))

    def _walk(self, x: np.ndarray, idx: int, delta, cache: dict | None = None):
        """The network's complex output for one (H, W) image at ladder index idx, the encoder's
        skips, and their LOW bands if the walk modulated them or kept a cache (else None).

        A vector of all ones runs as None; a cache keeps what `_decode_bwd` needs.
        """
        W = self._weights
        if delta is not None:
            delta = validate_delta(delta, W.arch.layer_count)
            if np.all(delta == 1.0):
                delta = None  # the identity is the uncalibrated walk
        if x.ndim != 2:
            raise InvalidArgumentError(f"expected an (H, W) image, got shape {x.shape}")
        x2 = np.stack([x.real, x.imag], dtype=np.float32)[None]
        t_idx = np.array([idx], dtype=np.int64)
        _check_input(x2.shape, t_idx, W.arch)
        h, skips = _encode(x2, t_idx, W)
        joined, lows = skips, None
        if delta is not None or cache is not None:
            lows = [low_band(s, W.arch.band_cutoff) for s in skips]
        if delta is not None:
            # layer numbering is shallow-first: (alpha_l, beta_l) at delta[2l], delta[2l+1];
            # Python floats, since an np.float64 scalar promotes float32
            joined = [_mix_bands(s, low, float(delta[2 * i]), float(delta[2 * i + 1]))
                      for i, (s, low) in enumerate(zip(skips, lows))]
        head = _decode(h, joined, W, cache)
        return (head[0, 0] + 1j * head[0, 1]).astype(np.complex128), skips, lows


# ---------------------------------------------------------------------------
# weight I/O: flat float64 payload + plain-text architecture descriptor
# ---------------------------------------------------------------------------


def save_weights(path: str | os.PathLike, weights: UNetWeights) -> None:
    arch = weights.arch
    shapes = arch.param_shapes()
    flat = np.concatenate([weights.params[name].ravel() for name in shapes])
    write_tensor(path, flat)
    # the line order of existing sidecars, so re-saving loaded weights gives the same bytes
    lines = {"in_channels": IN_CHANNELS, "widths": arch.widths, "bottleneck": arch.bottleneck,
             "kernel": KERNEL, **{f.name: getattr(arch, f.name) for f in fields(arch)}}
    with open(f"{os.fspath(path)}.arch", "w") as fh:
        for name, value in lines.items():
            text = ",".join(str(w) for w in value) if isinstance(value, tuple) else repr(value)
            fh.write(f"{name}={text}\n")


def load_weights(path: str | os.PathLike) -> UNetWeights:
    desc_path = f"{os.fspath(path)}.arch"
    if not os.path.exists(desc_path):
        raise FormatError(f"missing architecture descriptor {desc_path}")
    text: dict[str, str] = {}
    try:  # every line is required; a field's default's type parses it, UNetArch checks it
        with open(desc_path) as fh:
            for line in fh:
                line = line.strip()
                if line and "=" in line:
                    key, val = line.split("=", 1)
                    text[key] = val
        if (int(text["in_channels"]), int(text["kernel"])) != (IN_CHANNELS, KERNEL):
            raise ValueError(f"need in_channels={IN_CHANNELS} and kernel={KERNEL}")
        arch = UNetArch(**{
            f.name: (tuple(int(w) for w in text[f.name].split(","))
                     if isinstance(f.default, tuple) else type(f.default)(text[f.name]))
            for f in fields(UNetArch)
        })
    except (KeyError, ValueError) as exc:  # undecodable bytes and InvalidArgumentError alike
        raise FormatError(f"bad architecture descriptor {desc_path}: {exc}") from exc

    flat = read_tensor(path)
    if flat.ndim != 1 or np.iscomplexobj(flat):
        raise FormatError("weight payload must be a rank-1 real tensor")
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"weight payload {os.fspath(path)} has non-finite values")
    shapes = arch.param_shapes()
    total = sum(math.prod(s) for s in shapes.values())  # exact, whatever the descriptor says
    if flat.size != total:
        raise FormatError(
            f"payload length {flat.size} does not match descriptor total {total}"
        )
    params: dict[str, np.ndarray] = {}
    off = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        params[name] = flat[off : off + n].reshape(shape).copy()
        off += n
    return UNetWeights(arch, params)


# ---------------------------------------------------------------------------
# desk-scale training: denoising score matching with plain SGD
# ---------------------------------------------------------------------------

DSM_DRAWS_PER_IMAGE = 4  # seeded (level, noise) draws per held-out image in dsm_loss
CLIP_NORM = 1.0  # global gradient-norm bound of train_toy_denoiser


def dsm_loss(
    weights: UNetWeights,
    images: list[np.ndarray],
    seed: int = 0,
) -> float:
    """Mean squared noise-prediction error over seeded (image, level) draws."""
    if not images:
        raise InvalidArgumentError("held-out set must be nonempty")
    arch = weights.arch
    sigmas = arch.sigma_ladder()
    rng = np.random.default_rng(seed)
    total, count = 0.0, 0
    for img in images:
        x0 = np.stack([np.asarray(img).real, np.asarray(img).imag])[None]
        for _ in range(DSM_DRAWS_PER_IMAGE):
            t = int(rng.integers(arch.emb_steps))
            eps = rng.standard_normal(x0.shape)
            out = _forward(x0 + sigmas[t] * eps, np.array([t]), weights)
            total += float(np.mean((out - eps) ** 2))
            count += 1
    return total / count


def train_toy_denoiser(
    images: list[np.ndarray],
    epochs: int,
    seed: int = 0,
    arch: UNetArch | None = None,
    lr: float = 0.1,
    batch_size: int = 4,
) -> UNetWeights:
    """Train the noise predictor with plain SGD; deterministic given the seed.

    `epochs` counts passes over the dataset; zero epochs returns the
    seeded initialization untouched.  Gradients are clipped to the global
    norm bound CLIP_NORM, which keeps the constant learning rate stable
    over long runs.
    """
    if not images:
        raise InvalidArgumentError("training set must be nonempty")
    POSITIVE.check("lr", lr)
    COUNT.check("batch_size", batch_size)
    integer_at_least(0).check("epochs", epochs)
    SEED.check("seed", seed)
    arch = arch or UNetArch()
    weights = init_weights(arch, seed)
    if epochs == 0:
        return weights

    sigmas = arch.sigma_ladder()
    stacked = [np.stack([np.asarray(im).real, np.asarray(im).imag]) for im in images]
    rng = np.random.default_rng((seed, 1))
    n = len(stacked)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x0 = np.stack([stacked[i] for i in idx])
            t = rng.integers(arch.emb_steps, size=idx.size)
            eps = rng.standard_normal(x0.shape)
            x_in = x0 + sigmas[t][:, None, None, None] * eps
            cache: dict = {}  # frees the previous batch's cache before this forward
            out = _forward(x_in, t, weights, cache)
            dout = 2.0 * (out - eps) / out.size
            grads = _backward(dout, cache, weights)
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            scale = lr if total <= CLIP_NORM else lr * CLIP_NORM / total
            for name in weights.params:
                weights.params[name] -= scale * grads[name]
    return weights
