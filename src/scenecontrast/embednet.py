"""Tiny dense embedding networks with exact reverse-mode gradients.

Two of these stacks stand in for the 2D and 3D backbones: one maps raw
pixel features to D-dim embeddings, the other maps raw point rows
(x,y,z,intensity).  Pooling averages member rows per region and
L2-normalizes, so downstream dot products are cosine similarities.

Every stack applies a ReLU after each layer but the last, whose output
is affine; a layer stores no activation of its own.

Backward passes are written by hand and checked against central finite
differences in the test suite; caches carry a version stamp so a stale
cache (parameters updated in between) is rejected instead of silently
producing wrong gradients.

Parameter layout: ``layer_views`` lays a list of stacks over one flat
float64 buffer, stack by stack and layer by layer, each weight row-major
followed by its bias, which is also the checkpoint order.  ``pack_params``
moves a model's layers into such a buffer; ``backward`` returns a stack's
parameter gradient as one vector in the same layout, and the training
loop lays its gradient and velocity buffers out the same way.  Layers are
frozen, so a layer's arrays can be written in place but never rebound.

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


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # (out, in) float64
    bias: np.ndarray  # (out,) float64


@dataclass
class DenseStack:
    """Affine layers with a ReLU after all but the last.

    ``version`` bumps on every parameter write.
    """

    layers: list[DenseLayer]
    version: int = 0

    @property
    def in_width(self) -> int:
        return self.layers[0].weight.shape[1] if self.layers else 0

    @property
    def out_width(self) -> int:
        return self.layers[-1].weight.shape[0] if self.layers else 0

    @property
    def num_params(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)

    def validate(self) -> None:
        prev = None
        for i, layer in enumerate(self.layers):
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


def init_stack(widths: list[int], seed_rng: np.random.Generator) -> DenseStack:
    """Glorot-uniform stack over consecutive widths, deterministic per rng."""
    if len(widths) < 2:
        raise ConfigurationError("need at least an input and an output width")
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = seed_rng.uniform(-a, a, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    stack = DenseStack(layers)
    stack.validate()
    return stack


def layer_views(
    stacks: list[DenseStack], buf: np.ndarray
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per stack, per layer, the (weight, bias) views of a flat buffer.

    ``buf`` holds every parameter of ``stacks`` in checkpoint order: stack
    by stack, layer by layer, the weight row-major, then the bias.
    """
    if buf.shape != (sum(s.num_params for s in stacks),):
        raise ShapeError(f"buffer shape {buf.shape} does not fit the stacks")
    out = []
    at = 0
    for s in stacks:
        pairs = []
        for l in s.layers:
            rows, cols = l.weight.shape
            w = buf[at : at + rows * cols].reshape(rows, cols)
            at += rows * cols
            pairs.append((w, buf[at : at + rows]))
            at += rows
        out.append(pairs)
    return out


def pack_params(stacks: list[DenseStack]) -> np.ndarray:
    """Move every layer of ``stacks`` into one new buffer and return it.

    Each layer is replaced by one whose weight and bias are views of the
    buffer (laid out by ``layer_views``); the stacks keep their identity.
    """
    buf = np.empty(sum(s.num_params for s in stacks))
    for s, pairs in zip(stacks, layer_views(stacks, buf)):
        for l, (w, b) in zip(s.layers, pairs):
            w[...] = l.weight
            b[...] = l.bias
        s.layers[:] = [DenseLayer(w, b) for w, b in pairs]
    return buf


@dataclass
class ForwardCache:
    stack: DenseStack
    version: int
    inputs: np.ndarray
    acts: list[np.ndarray]  # per layer, its output (after its ReLU, if any)
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
    last = len(stack.layers) - 1
    for i, (layer, buf) in enumerate(zip(stack.layers, bufs)):
        h = np.matmul(h, layer.weight.T, out=buf)
        h += layer.bias
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, ForwardCache(stack, stack.version, x, acts)


def backward(
    stack: DenseStack, upstream: np.ndarray, cache: ForwardCache
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * output) w.r.t. parameters and inputs.

    The parameter gradient is one new vector laid out by ``layer_views``.
    Consumes ``cache``: the gradient at each hidden layer's output is
    written over that layer's stored output, so the cache is dead
    afterwards.  ``upstream`` itself is never written to, so it may be the
    cache's own output array, which saves a buffer.
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
    cache.live = False
    grads = np.empty(stack.num_params)
    (views,) = layer_views([stack], grads)
    for i in range(len(layers) - 1, -1, -1):
        below = cache.inputs if i == 0 else acts[i - 1]
        gw, gb = views[i]
        np.matmul(g.T, below, out=gw)
        g.sum(axis=0, out=gb)
        if i == 0:
            g = g @ layers[0].weight
            continue
        # the ReLU mask of the layer below, before its output is overwritten
        mask = below > 0.0
        g = np.matmul(g, layers[i].weight, out=below)
        g *= mask
    return grads, g


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
        if idx.min() < 0 or idx.max() >= n:
            raise ShapeError(f"group {i} indexes outside [0,{n})")
        # what ndarray.mean computes, without its Python-level wrapper
        means[i] = np.add.reduce(feats[idx], axis=0) / len(idx)
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
    """Copy checkpoint layers into the stacks' arrays, shape- and finiteness-checked."""
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
        target.weight[...] = w
        target.bias[...] = b
    for k, s in enumerate(stacks):
        try:
            s.validate()
        except ConfigurationError as err:
            raise ConfigurationError(f"checkpoint stack {k}, {err}") from err
        s.bump()
