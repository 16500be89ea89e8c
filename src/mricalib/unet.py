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

A calibration vector other than all ones splits each decoder level's first
conv by linearity into an up term and two skip-band terms, which the score
adapter reuses across calibration probes; their sum rounds differently
from the conv of the joined channels, within 1e-13 relative in float64.
The all-ones vector is the identity and runs the uncalibrated network
itself, bit for bit.  Each conv is one GEMM per sample whose tap outputs
are added shifted, bit-identical to one GEMM per tap.

Everything is plain numpy.  Inference (`UNetScorePrior`, `unet_forward`)
runs in float32 on weights cast once, within 1e-5 relative of the float64
walk; training, `dsm_loss` and the weight files stay float64.  The layer
primitives compute in the dtype of their input.  Training is denoising
score matching with hand-derived convolution gradients and plain SGD — the
adaptation machinery never differentiates through the network, so no
autodiff dependency is needed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np


from .errors import FormatError, InvalidArgumentError
from .priors import ScorePrior, validate_delta
from .sampler import build_schedule
from .tensorio import read_tensor, write_tensor


@dataclass(frozen=True)
class UNetArch:
    """Architecture descriptor; fully determines parameter names and shapes."""

    in_channels: int = 2
    widths: tuple[int, ...] = (8, 16)  # encoder widths, one per skip layer
    bottleneck: int = 32
    kernel: int = 3
    emb_steps: int = 100  # rows of the noise-level embedding table
    sigma_min: float = 0.01  # noise ladder the embedding indexes into
    sigma_max: float = 1.0
    band_cutoff: float = 0.25  # low/high split radius as a fraction of Nyquist

    def __post_init__(self):
        if len(self.widths) < 1:
            raise InvalidArgumentError("need at least one encoder level")
        if self.in_channels != 2:
            raise InvalidArgumentError(f"in_channels must be 2 (re, im), got {self.in_channels}")
        if min(self.bottleneck, *self.widths) < 1:
            raise InvalidArgumentError("channel counts must be >= 1")
        if self.kernel < 1 or self.kernel % 2 != 1:
            raise InvalidArgumentError("kernel size must be odd and >= 1")
        if not self.emb_steps >= 1:
            raise InvalidArgumentError(f"emb_steps must be >= 1, got {self.emb_steps}")
        if not 0 < self.sigma_min < self.sigma_max < np.inf:  # NaN fails too
            raise InvalidArgumentError(
                f"need 0 < sigma_min < sigma_max < inf, got {self.sigma_min}, {self.sigma_max}"
            )
        if not 0 < self.band_cutoff < 1:
            raise InvalidArgumentError("band_cutoff must lie in (0, 1)")

    @property
    def layer_count(self) -> int:
        return len(self.widths)

    def sigma_ladder(self) -> np.ndarray:
        return build_schedule(self.emb_steps, self.sigma_max, self.sigma_min)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        k = self.kernel
        shapes: dict[str, tuple[int, ...]] = {}

        def block(name: str, cin: int, cout: int) -> None:
            shapes[f"{name}.c1.w"] = (cout, cin, k, k)
            shapes[f"{name}.c1.b"] = (cout,)
            shapes[f"{name}.c2.w"] = (cout, cout, k, k)
            shapes[f"{name}.c2.b"] = (cout,)

        prev = self.in_channels
        for i, w in enumerate(self.widths):
            block(f"enc{i}", prev, w)
            prev = w
        block("bot", prev, self.bottleneck)
        prev = self.bottleneck
        for i in reversed(range(self.layer_count)):
            block(f"dec{i}", prev + self.widths[i], self.widths[i])
            prev = self.widths[i]
        shapes["head.w"] = (self.in_channels, prev, k, k)
        shapes["head.b"] = (self.in_channels,)
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


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, want_cache: bool):
    """Same-padded 2-D convolution, one GEMM per sample.  x: (B, Cin, H, W).

    The GEMM multiplies every tap's (Cout, Cin) kernel slice with the
    whole padded sample at once; the k² tap outputs are then added, shifted,
    into a zeroed accumulator in row-major tap order, and the bias last.
    Each output is therefore the same sum, in the same order, as one GEMM
    per tap over shifted input windows, so the result is bit-identical to
    that form.  `b` None skips the bias.
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
    if b is not None:
        y += b[None, :, None, None]
    cache = (xp, x.shape, w) if want_cache else None
    return y, cache


def _conv2d_bwd(dy: np.ndarray, cache):
    """Input, kernel and bias gradients of `_conv2d`.

    The input gradient runs one GEMM per sample and kernel row, (k·Cin, Cout)
    by the sample's output gradient, and adds the tap results, shifted, into
    the padded grid in row-major tap order: the same sums in the same order
    as one GEMM per tap.  A GEMM per kernel row keeps the tap buffer at
    k·Cin·H·W; one per sample would hold k²·Cin·H·W, 7 MB at the widest
    decoder conv of a 64² training batch, which raised training's peak
    memory by 10 %.
    """
    xp, x_shape, w = cache
    B, Cin, H, W = x_shape
    Cout, _, k, _ = w.shape
    p = k // 2
    dw = np.empty_like(w)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + H, j : j + W]
            dw[:, :, i, j] = np.tensordot(dy, patch, axes=([0, 2, 3], [0, 2, 3]))
    row_wt = w.transpose(2, 3, 1, 0).reshape(k, k * Cin, Cout)
    dxp = np.zeros_like(xp)
    for n in range(B):
        dy_n = dy[n].reshape(Cout, H * W)
        for i in range(k):
            taps = (row_wt[i] @ dy_n).reshape(k, Cin, H, W)
            for j in range(k):
                dxp[n, :, i : i + H, j : j + W] += taps[j]
    db = dy.sum(axis=(0, 2, 3))
    return dxp[:, :, p : p + H, p : p + W], dw, db


def _relu(x, want_cache):
    y = np.maximum(x, 0.0)
    return y, (x > 0) if want_cache else None


def _pool2(x):
    B, C, H, W = x.shape
    return x.reshape(B, C, H // 2, 2, W // 2, 2).mean(axis=(3, 5))


def _pool2_bwd(dy):
    return np.repeat(np.repeat(dy, 2, axis=2), 2, axis=3) / 4.0


def _up2(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def _up2_bwd(dy):
    B, C, H, W = dy.shape
    return dy.reshape(B, C, H // 2, 2, W // 2, 2).sum(axis=(3, 5))


def low_band(feat: np.ndarray, cutoff: float) -> np.ndarray:
    """Project real feature maps onto DFT radii <= cutoff * Nyquist (last two axes)."""
    H, W = feat.shape[-2:]
    fy = np.fft.fftfreq(H) * 2.0  # Nyquist normalized to |1|
    fx = np.fft.fftfreq(W) * 2.0
    keep = (fy[:, None] ** 2 + fx[None, :] ** 2) <= cutoff**2
    return np.fft.ifft2(np.fft.fft2(feat, axes=(-2, -1)) * keep, axes=(-2, -1)).real


def modulate_bands(feat: np.ndarray, alpha: float, beta: float, cutoff: float) -> np.ndarray:
    """alpha * LOW(F) + beta * HIGH(F), with HIGH = F - LOW so the partition is exact."""
    low = low_band(feat, cutoff)
    return alpha * low + beta * (feat - low)


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------


def _check_input(shape: tuple[int, ...], t_idx: np.ndarray, arch: UNetArch) -> None:
    L = arch.layer_count
    _, C, H, W = shape
    if C != arch.in_channels:
        raise InvalidArgumentError(f"expected {arch.in_channels} channels, got {C}")
    if H % (1 << L) or W % (1 << L):
        raise InvalidArgumentError(f"spatial size {H}x{W} not divisible by {1 << L}")
    if np.any(t_idx < 0) or np.any(t_idx >= arch.emb_steps):
        raise InvalidArgumentError("noise-level index out of embedding range")


def _block(name: str, h: np.ndarray, weights: UNetWeights, cache: dict | None = None,
           emb: np.ndarray | None = None) -> np.ndarray:
    """Conv c1, plus `emb` if given, then `_block_tail`; a cache keeps (c1, r1, c2, r2)."""
    P = weights.params
    want_cache = cache is not None
    h, c1 = _conv2d(h, P[f"{name}.c1.w"], P[f"{name}.c1.b"], want_cache)
    if emb is not None:
        h = h + emb
    h, tail = _block_tail(name, h, weights, want_cache)
    if want_cache:
        cache[name] = (c1, *tail)
    return h


def _block_tail(name: str, h: np.ndarray, weights: UNetWeights, want_cache: bool = False):
    """A block from its first conv's output on: ReLU, conv c2, ReLU.  Returns (h, (r1, c2, r2))."""
    P = weights.params
    h, r1 = _relu(h, want_cache)
    h, c2 = _conv2d(h, P[f"{name}.c2.w"], P[f"{name}.c2.b"], want_cache)
    h, r2 = _relu(h, want_cache)
    return h, (r1, c2, r2)


def _block_bwd(name: str, dh: np.ndarray, cache: dict, grads: dict[str, np.ndarray]):
    """Backward of `_block` into `grads`; returns the gradients at its input and at c1's output."""
    c1, r1, c2, r2 = cache[name]
    dh, grads[f"{name}.c2.w"], grads[f"{name}.c2.b"] = _conv2d_bwd(dh * r2, c2)
    d_c1 = dh * r1
    dh, grads[f"{name}.c1.w"], grads[f"{name}.c1.b"] = _conv2d_bwd(d_c1, c1)
    return dh, d_c1


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


def _decode_level(i: int, h: np.ndarray, skip: np.ndarray, weights: UNetWeights,
                  cache: dict | None = None) -> np.ndarray:
    """Uncalibrated decoder level i: upsample h, join the raw skip, one block."""
    return _block(f"dec{i}", np.concatenate([_up2(h), skip], axis=1), weights, cache)


# A calibrated decoder level splits its first conv by linearity over the
# joined channels [up, alpha*LOW + beta*HIGH]:
#   conv(...) + b = (conv_up(up) + b) + alpha*conv_skip(LOW) + beta*conv_skip(HIGH)
# with conv_up, conv_skip the kernel slices over the up and skip channels.
# The up term depends on the deeper calibration entries only and the skip
# terms on none, so a probe that moves (alpha_l, beta_l) can reuse both.


def _up_term(i: int, h: np.ndarray, weights: UNetWeights) -> np.ndarray:
    """conv_up(up2(h)) + b of decoder level i."""
    P = weights.params
    return _conv2d(_up2(h), P[f"dec{i}.c1.w"][:, : h.shape[1]], P[f"dec{i}.c1.b"], False)[0]


def _skip_terms(i: int, skip: np.ndarray, weights: UNetWeights) -> tuple[np.ndarray, np.ndarray]:
    """conv_skip(LOW) and conv_skip(HIGH) of decoder level i's raw skip, without bias."""
    w = weights.params[f"dec{i}.c1.w"]
    w_skip = w[:, w.shape[1] - skip.shape[1] :]
    low = low_band(skip, weights.arch.band_cutoff)
    return _conv2d(low, w_skip, None, False)[0], _conv2d(skip - low, w_skip, None, False)[0]


def _forward(x: np.ndarray, t_idx: np.ndarray, weights: UNetWeights, want_cache: bool = False):
    """Batched uncalibrated pass for training.  x: (B, in_channels, H, W); t_idx: (B,) int.

    Returns (out, cache); `want_cache` keeps what `_backward` needs.
    """
    arch = weights.arch
    t_idx = np.asarray(t_idx, dtype=np.int64)
    _check_input(x.shape, t_idx, arch)

    cache: dict = {"t_idx": t_idx} if want_cache else None
    h, skips = _encode(x, t_idx, weights, cache)
    for i in reversed(range(arch.layer_count)):
        h = _decode_level(i, h, skips[i], weights, cache)

    out, ch = _conv2d(h, weights.params["head.w"], weights.params["head.b"], want_cache)
    if want_cache:
        cache["head"] = ch
    return out, cache


def _backward(dout: np.ndarray, cache, weights: UNetWeights) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all parameters, from `_forward`'s cache.

    The skip branch gradient flows through the raw skip tensor.
    """
    arch = weights.arch
    L = arch.layer_count
    grads = {name: np.zeros_like(p) for name, p in weights.params.items()}

    dh, grads["head.w"], grads["head.b"] = _conv2d_bwd(dout, cache["head"])

    dskips: list[np.ndarray | None] = [None] * L
    for i in range(L):
        dh, _ = _block_bwd(f"dec{i}", dh, cache, grads)
        skip_ch = arch.widths[i]  # the joined input is [up, skip]
        dskips[i] = dh[:, -skip_ch:]
        dh = _up2_bwd(dh[:, :-skip_ch])

    dh, d_emb = _block_bwd("bot", dh, cache, grads)
    np.add.at(grads["emb"], cache["t_idx"], d_emb.sum(axis=(2, 3)))

    for i in reversed(range(L)):
        dh, _ = _block_bwd(f"enc{i}", _pool2_bwd(dh) + dskips[i], cache, grads)

    return grads


def unet_forward(
    x: np.ndarray,
    t: int,
    delta: np.ndarray | None,
    weights: UNetWeights,
) -> np.ndarray:
    """Run the network on one complex image; returns the complex 2-channel output.

    This is `UNetScorePrior`'s float32 walk on a fresh prior, so nothing is
    reused.
    """
    x = np.asarray(x, dtype=np.complex128)
    return UNetScorePrior(weights)._predict_noise(x, t, delta)


@dataclass
class _EncoderState:
    """What one input shares across calibration vectors: encoder outputs and split-conv terms."""

    key: tuple  # (input shape, input bytes, noise index)
    h: np.ndarray  # bottleneck output
    skips: list[np.ndarray]
    skip_terms: list[tuple | None]  # each level's _skip_terms, made on first calibrated use
    ups: dict[int, tuple] = field(default_factory=dict)  # level i -> (delta[2(i+1):] key, _up_term)


class UNetScorePrior(ScorePrior):
    """Score adapter: the network predicts the noise, score = -prediction / sigma.

    The noise level is snapped to the nearest entry of the ladder the
    network was trained on.  With `calibratable=False` the prior reports
    layer_count 0 and always runs the raw (unmodulated) forward pass.

    Evaluations reuse earlier work whose inputs are bit for bit the same;
    `unet_forward` runs the same walk on a fresh prior, so every output
    equals a fresh `unet_forward` to the last bit:

    - the encoder and bottleneck outputs of the most recent (input bytes,
      noise index); the calibration probes around one iterate then share
      one encoder pass;
    - for that input, the two skip terms of each calibrated decoder
      level's split first conv, conv_skip(LOW) and conv_skip(HIGH);
    - for that input, each level's up term conv_up(up) + b, keyed on the
      calibration entries of the deeper levels (delta[2(i+1):]); a probe
      that moves (alpha_l, beta_l) costs two scaled adds at level l, then
      the rest of level l and the full levels below it.

    The prior keeps no outputs: `pipeline.reconstruct` denoises each input
    once per step and shares the result.

    A calibrated level sums the split terms where the uncalibrated network
    convolves the joined channels, so a calibrated output differs from the
    concatenated form (modulate_bands, join, one conv) by rounding only,
    within 1e-13 relative in float64.  The all-ones vector runs as None, the
    concatenated form itself, so the identity is the uncalibrated network
    bit for bit and an uncalibrated run pays for no split terms.

    The network runs in float32 on a copy of the weights cast once here;
    the output goes back to complex128 before it is returned, and
    lies within 1e-5 relative of the float64 walk.  Later changes to the
    caller's `weights.params` do not reach the prior, so build a new one.

    The memory this holds is bounded by one set of encoder activations and
    three first-conv outputs per level.
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
        self._encoded: _EncoderState | None = None

    @property
    def layer_count(self) -> int:
        return self._weights.arch.layer_count if self.calibratable else 0

    def evaluate(self, x, sigma, delta=None):
        x = np.asarray(x, dtype=np.complex128)
        if not np.isfinite(sigma):
            raise InvalidArgumentError(f"sigma must be finite, got {sigma}")
        if sigma <= 0:
            return np.zeros_like(x)
        idx = int(np.argmin(np.abs(self._sigmas - sigma)))
        if not self.calibratable:
            delta = None
        eps_hat = self._predict_noise(x, idx, delta)
        return -eps_hat / sigma

    def _predict_noise(self, x: np.ndarray, idx: int, delta) -> np.ndarray:
        """The network's complex output for one (H, W) image at ladder index idx.

        Reuses what earlier calls computed; a vector of all ones runs as None.
        """
        arch = self._weights.arch
        L = arch.layer_count
        if x.ndim != 2:
            raise InvalidArgumentError(f"expected an (H, W) image, got shape {x.shape}")
        if delta is not None:
            delta = validate_delta(delta, L)
            if np.all(delta == 1.0):
                delta = None
        in_key = (x.shape, x.tobytes(), idx)
        enc = self._encoded
        if enc is None or enc.key != in_key:
            x2 = np.stack([x.real, x.imag], dtype=np.float32)[None]
            t_idx = np.array([idx], dtype=np.int64)
            _check_input(x2.shape, t_idx, arch)
            h, skips = _encode(x2, t_idx, self._weights)
            enc = self._encoded = _EncoderState(in_key, h, skips, [None] * L)

        P = self._weights.params
        h = enc.h
        if delta is None:
            for i in reversed(range(L)):
                h = _decode_level(i, h, enc.skips[i], self._weights)
        else:
            def up_key(i):
                return delta[2 * (i + 1) :].tobytes()

            # start at the shallowest level whose up term is still valid;
            # the deeper levels only fed that term
            start, up = L - 1, None
            for i in range(L):
                held = enc.ups.get(i)
                if held is not None and held[0] == up_key(i):
                    start, up = i, held[1]
                    break
            for i in reversed(range(start + 1)):
                if up is None:
                    up = _up_term(i, h, self._weights)
                    enc.ups[i] = (up_key(i), up)
                if enc.skip_terms[i] is None:
                    enc.skip_terms[i] = _skip_terms(i, enc.skips[i], self._weights)
                low_term, high_term = enc.skip_terms[i]
                # layer numbering is shallow-first: (alpha_l, beta_l) at delta[2l], delta[2l+1];
                # Python floats, since an np.float64 scalar promotes float32 to float64
                alpha, beta = float(delta[2 * i]), float(delta[2 * i + 1])
                h, _ = _block_tail(f"dec{i}", up + alpha * low_term + beta * high_term,
                                   self._weights)
                up = None

        head, _ = _conv2d(h, P["head.w"], P["head.b"], False)
        return (head[0, 0] + 1j * head[0, 1]).astype(np.complex128)


# ---------------------------------------------------------------------------
# weight I/O: flat float64 payload + plain-text architecture descriptor
# ---------------------------------------------------------------------------


def save_weights(path: str | os.PathLike, weights: UNetWeights) -> None:
    arch = weights.arch
    shapes = arch.param_shapes()
    flat = np.concatenate([weights.params[name].ravel() for name in shapes])
    write_tensor(path, flat)
    with open(f"{os.fspath(path)}.arch", "w") as fh:
        for f in fields(arch):
            value = getattr(arch, f.name)
            text = ",".join(str(w) for w in value) if isinstance(value, tuple) else repr(value)
            fh.write(f"{f.name}={text}\n")


def load_weights(path: str | os.PathLike) -> UNetWeights:
    desc_path = f"{os.fspath(path)}.arch"
    if not os.path.exists(desc_path):
        raise FormatError(f"missing architecture descriptor {desc_path}")
    text: dict[str, str] = {}
    try:  # every field is required; its default's type parses it, UNetArch checks it
        with open(desc_path) as fh:
            for line in fh:
                line = line.strip()
                if line and "=" in line:
                    key, val = line.split("=", 1)
                    text[key] = val
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
            out, _ = _forward(x0 + sigmas[t] * eps, np.array([t]), weights)
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
    if not 0 < lr < np.inf:  # NaN fails too
        raise InvalidArgumentError(f"lr must be a finite number > 0, got {lr}")
    if batch_size < 1:
        raise InvalidArgumentError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise InvalidArgumentError(f"epochs must be >= 0, got {epochs}")
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
            out, cache = _forward(x_in, t, weights, want_cache=True)
            dout = 2.0 * (out - eps) / out.size
            grads = _backward(dout, cache, weights)
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            scale = lr if total <= CLIP_NORM else lr * CLIP_NORM / total
            for name in weights.params:
                weights.params[name] -= scale * grads[name]
    return weights
