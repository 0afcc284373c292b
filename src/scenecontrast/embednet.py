"""Tiny dense embedding networks with exact reverse-mode gradients.

Two of these stacks stand in for the 2D and 3D backbones: one maps raw
pixel features to D-dim embeddings, the other maps raw point rows
(x,y,z,intensity).  Pooling averages member rows per region and
L2-normalizes, so downstream dot products are cosine similarities.

Backward passes are written by hand and checked against central finite
differences in the test suite; caches carry a version stamp so a stale
cache (parameters updated in between) is rejected instead of silently
producing wrong gradients.

Buffer contract: a forward cache holds each layer's output.  ``forward``
given ``reuse=`` an earlier cache of the same stack and row count writes
its outputs into that cache's arrays, so a caller that keeps one cache
per batch slot allocates no activation arrays after its first step.
``backward`` consumes its cache: it writes each layer's output gradient
over that layer's stored output, so a cache serves one backward only.
A stale cache, a consumed cache and a cache whose arrays a later forward
has taken over are all rejected with ContractViolationError.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .binio import ByteCursor, pack_array, pack_u32
from .errors import CheckpointFormatError, ConfigurationError, ContractViolationError, ShapeError

CKPT_MAGIC = b"CSCW"
CKPT_VERSION = 1

_ACTIVATIONS = ("relu", "none")


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in) float64
    bias: np.ndarray  # (out,) float64
    activation: str  # "relu" or "none"


@dataclass
class DenseStack:
    """Affine/activation chain; ``version`` bumps on every parameter write."""

    layers: list[DenseLayer]
    version: int = 0

    @property
    def in_width(self) -> int:
        return self.layers[0].weight.shape[1] if self.layers else 0

    @property
    def out_width(self) -> int:
        return self.layers[-1].weight.shape[0] if self.layers else 0

    def validate(self) -> None:
        prev = None
        for i, layer in enumerate(self.layers):
            if layer.activation not in _ACTIVATIONS:
                raise ConfigurationError(
                    f"layer {i}: unknown activation {layer.activation!r}"
                )
            out_w, in_w = layer.weight.shape
            if layer.bias.shape != (out_w,):
                raise ShapeError(f"layer {i}: bias shape {layer.bias.shape}")
            if prev is not None and in_w != prev:
                raise ShapeError(
                    f"layer {i}: input width {in_w} does not chain from {prev}"
                )
            if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
                raise ConfigurationError(f"layer {i}: non-finite parameters")
            prev = out_w

    def bump(self) -> None:
        self.version += 1

    def num_params(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)

    def get_flat(self) -> np.ndarray:
        if not self.layers:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [np.concatenate([l.weight.ravel(), l.bias]) for l in self.layers]
        )

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.num_params(),):
            raise ShapeError(f"flat vector has {flat.shape}, want {self.num_params()}")
        pos = 0
        for l in self.layers:
            n = l.weight.size
            l.weight = flat[pos : pos + n].reshape(l.weight.shape).copy()
            pos += n
            n = l.bias.size
            l.bias = flat[pos : pos + n].copy()
            pos += n
        self.bump()


def init_stack(widths: list[int], seed_rng: np.random.Generator,
               hidden_activation: str = "relu",
               final_activation: str = "none") -> DenseStack:
    """Glorot-uniform stack over consecutive widths, deterministic per rng."""
    if len(widths) < 2:
        raise ConfigurationError("need at least an input and an output width")
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = seed_rng.uniform(-a, a, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = final_activation if i == len(widths) - 2 else hidden_activation
        layers.append(DenseLayer(w, b, act))
    stack = DenseStack(layers)
    stack.validate()
    return stack


@dataclass
class ForwardCache:
    stack: DenseStack
    version: int
    inputs: np.ndarray
    acts: list[np.ndarray]  # per layer, its output (after the activation)
    live: bool = True  # False once a backward consumed it or a forward reused it

    def check(self) -> None:
        if self.version != self.stack.version:
            raise ContractViolationError(
                "stale forward cache: parameters changed since forward"
            )
        if not self.live:
            raise ContractViolationError(
                "dead forward cache: already consumed by a backward or "
                "reused by a forward"
            )


def forward(
    stack: DenseStack, inputs: np.ndarray, reuse: ForwardCache | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on (N, in_width) rows; empty stacks are the identity.

    The output is the cache's last activation, so callers must not write
    to it while the cache may still be used.  When ``reuse`` is a cache of
    this stack over N rows, not holding ``inputs``, each layer's output is
    written into its array and ``reuse`` is dead from then on; any other
    ``reuse`` is ignored.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got shape {x.shape}")
    if stack.layers and x.shape[1] != stack.in_width:
        raise ShapeError(
            f"inputs have width {x.shape[1]}, stack expects {stack.in_width}"
        )
    bufs = [None] * len(stack.layers)
    if (
        reuse is not None
        and reuse.stack is stack
        and [a.shape for a in reuse.acts]
        == [(x.shape[0], l.weight.shape[0]) for l in stack.layers]
        and not any(np.may_share_memory(x, a) for a in reuse.acts)
    ):
        bufs = reuse.acts
        reuse.live = False
    acts = []
    h = x
    for layer, buf in zip(stack.layers, bufs):
        h = np.matmul(h, layer.weight.T, out=buf)
        h += layer.bias
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, ForwardCache(stack, stack.version, x, acts)


def backward(
    stack: DenseStack, upstream: np.ndarray, cache: ForwardCache
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of sum(upstream * output) w.r.t. parameters and inputs.

    Consumes ``cache``: the gradient at each hidden layer's output is
    written over that layer's stored output (and, under a ReLU top layer,
    the top gradient over the output), so the cache is dead afterwards.
    ``upstream`` itself is never written to.  It may be the cache's own
    output array, which saves a buffer, but only if the top layer is
    linear: a ReLU top layer needs its output for the mask.
    """
    cache.check()
    if cache.stack is not stack:
        raise ContractViolationError("cache built for a different stack")
    g = np.asarray(upstream, dtype=np.float64)
    acts = cache.acts
    layers = stack.layers
    if layers and g.shape != acts[-1].shape:
        raise ShapeError(
            f"upstream shape {g.shape} does not match output {acts[-1].shape}"
        )
    top_relu = bool(layers) and layers[-1].activation == "relu"
    if top_relu and np.may_share_memory(g, acts[-1]):
        raise ContractViolationError(
            "upstream overlaps the output of a ReLU top layer, "
            "whose mask backward still needs"
        )
    cache.live = False
    if top_relu:
        # relu(z) > 0 exactly where z > 0, NaN included
        g = np.multiply(g, acts[-1] > 0.0, out=acts[-1])
    param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        below = cache.inputs if i == 0 else acts[i - 1]
        param_grads[i] = (g.T @ below, g.sum(axis=0))
        if i == 0:
            g = g @ layers[0].weight
            continue
        # the mask of the layer below, before its output is overwritten
        mask = below > 0.0 if layers[i - 1].activation == "relu" else None
        g = np.matmul(g, layers[i].weight, out=below)
        if mask is not None:
            g *= mask
    return param_grads, g


# ---------------------------------------------------------------------------
# pooling


@dataclass
class PoolCache:
    groups: list[np.ndarray]
    num_rows: int
    means: np.ndarray  # (Q, D) pre-normalization means
    norms: np.ndarray  # (Q,)
    valid: np.ndarray  # (Q,) bool


def pool_regions(
    features: np.ndarray, groups: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, PoolCache]:
    """Mean member rows per group, L2-normalized; (rows, valid, cache).

    A group that is empty, or whose mean cancels to (near) zero, is marked
    invalid and its output row is zero.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"features must be 2-D, got {feats.shape}")
    n, d = feats.shape
    q = len(groups)
    means = np.zeros((q, d))
    valid = np.zeros(q, dtype=bool)
    for i, idx in enumerate(groups):
        if len(idx) == 0:
            continue
        if np.min(idx) < 0 or np.max(idx) >= n:
            raise ShapeError(f"group {i} indexes outside [0,{n})")
        means[i] = feats[idx].mean(axis=0)
        valid[i] = True
    norms = np.linalg.norm(means, axis=1)
    degenerate = norms < 1e-12
    valid &= ~degenerate
    safe = np.where(valid, norms, 1.0)
    rows = np.where(valid[:, None], means / safe[:, None], 0.0)
    return rows, valid, PoolCache(groups, n, means, norms, valid)


def pool_backward(
    upstream: np.ndarray, cache: PoolCache, out: np.ndarray | None = None
) -> np.ndarray:
    """Push row gradients back through normalize-then-mean to member rows.

    ``out``, if given, is an (N, D) float64 array overwritten with the
    result, such as the pooled features once nothing else reads them.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache.means.shape:
        raise ShapeError(f"upstream shape {g.shape} != {cache.means.shape}")
    shape = (cache.num_rows, cache.means.shape[1])
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ShapeError(f"out has shape {out.shape} {out.dtype}, want {shape} float64")
    else:
        out.fill(0.0)
    for i, idx in enumerate(cache.groups):
        if not cache.valid[i]:
            continue
        v = cache.means[i]
        nv = cache.norms[i]
        u = v / nv
        gi = g[i]
        g_mean = (gi - np.dot(gi, u) * u) / nv
        out[idx] += g_mean / len(idx)
    return out


@dataclass
class EmbeddingBank:
    """Paired pooled embeddings for the Q superpixels of a batch."""

    f2d: np.ndarray  # (Q, D)
    f3d: np.ndarray  # (Q, D)
    valid: np.ndarray  # (Q,) bool, True only when both sides pooled
    signs: np.ndarray  # (Q,) int64 semantic class per region

    def validate(self) -> None:
        q, d = self.f2d.shape
        if self.f3d.shape != (q, d):
            raise ShapeError("f2d and f3d shapes differ")
        if self.valid.shape != (q,) or self.signs.shape != (q,):
            raise ShapeError("valid/signs must be (Q,)")
        for name, m in (("f2d", self.f2d), ("f3d", self.f3d)):
            norms = np.linalg.norm(m[self.valid], axis=1)
            if norms.size and np.max(np.abs(norms - 1.0)) > 1e-9:
                raise ContractViolationError(f"{name} valid rows not unit-norm")

    @property
    def num_valid(self) -> int:
        return int(self.valid.sum())


def make_bank(
    rows2d: np.ndarray,
    valid2d: np.ndarray,
    rows3d: np.ndarray,
    valid3d: np.ndarray,
    signs: np.ndarray,
) -> EmbeddingBank:
    bank = EmbeddingBank(
        f2d=rows2d,
        f3d=rows3d,
        valid=valid2d & valid3d,
        signs=np.asarray(signs, dtype=np.int64),
    )
    bank.validate()
    return bank


# ---------------------------------------------------------------------------
# checkpoint format


def write_checkpoint(path, stacks: list[DenseStack]) -> None:
    """All stacks' layers flattened in order into one "CSCW" file."""
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    layers = [l for s in stacks for l in s.layers]
    buf.write(pack_u32(CKPT_VERSION, len(layers)))
    for l in layers:
        rows, cols = l.weight.shape
        buf.write(pack_u32(rows, cols))
        buf.write(pack_array(l.weight, "float64"))
        buf.write(pack_array(l.bias, "float64"))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Raw (weight, bias) pairs; wiring back onto stacks is the caller's job."""
    with open(path, "rb") as fh:
        data = fh.read()
    cur = ByteCursor(data, CheckpointFormatError)
    magic = cur.take(4, "magic")
    if magic != CKPT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {CKPT_MAGIC!r}", 0)
    version = cur.u32("version")
    if version != CKPT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}", 4)
    count = cur.u32("layer count")
    out = []
    for i in range(count):
        rows = cur.u32(f"layer {i} rows")
        cols = cur.u32(f"layer {i} cols")
        w = cur.array("float64", rows * cols, f"layer {i} weights").reshape(rows, cols)
        b = cur.array("float64", rows, f"layer {i} bias")
        out.append((w, b))
    cur.expect_end("layer table")
    return out


def load_layers(stacks: list[DenseStack], layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write checkpoint layers back into stacks, shape- and finiteness-checked."""
    want = [l for s in stacks for l in s.layers]
    if len(want) != len(layers):
        raise ConfigurationError(
            f"checkpoint has {len(layers)} layers, architecture wants {len(want)}"
        )
    for i, (target, (w, b)) in enumerate(zip(want, layers)):
        if target.weight.shape != w.shape:
            raise ConfigurationError(
                f"layer {i}: checkpoint shape {w.shape} != {target.weight.shape}"
            )
        target.weight = w.copy()
        target.bias = b.copy()
    for k, s in enumerate(stacks):
        try:
            s.validate()
        except ConfigurationError as err:
            raise ConfigurationError(f"checkpoint stack {k}, {err}") from err
        s.bump()
