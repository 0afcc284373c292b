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

Buffer contract: a forward cache keeps a reference to its input rows,
the output of each hidden layer after the first, and, once a backward
has run on it, the vector that backward wrote the parameter gradient
into.  The caller must not change the input rows while the cache is
live.  Inputs may be float32 (the scene files' dtype): each product that
reads them casts them to float64 on the fly, which is exact.  The last
layer's output is not kept, since ``backward`` never reads it:
``forward`` writes it into a buffer the caller lends (``out=``) or into
a new array.  Nor is the first hidden layer's output: ``forward`` writes
it into a buffer the caller lends (``work=``) or into a new array, and
``backward`` recomputes it from the inputs with the same operations, so
with the forward's bits, into the buffer the caller lends it.  ``out``
may overlap ``work``: with two or more hidden layers, ``forward`` writes
the output after the first hidden output is dead, and ``backward``
recomputes it after the top layer has read ``upstream``, so one buffer
can hold the output, the upstream and the first hidden output in turn.
``forward`` given ``reuse=`` an earlier cache of the same stack and row
count writes its later hidden outputs into that cache's arrays and
takes over its gradient vector.  So a caller that keeps one cache per
batch slot, and lends one buffer per thread, allocates no activation
arrays and no gradient vectors after its first step; it reads each
gradient before the slot's next backward overwrites it.  ``backward``
consumes its cache: it writes each hidden layer's output gradient over
that layer's output, so a cache serves one backward only.  A stale
cache, a consumed cache and a cache whose arrays a later forward has
taken over are all rejected with ContractViolationError.  ``backward``
computes the input gradient only for a caller that asks for it
(``input_grad``), since the training step discards it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import pack_array, pack_u32, read_container, write_container
from .errors import CheckpointFormatError, ConfigurationError, ContractViolationError, ShapeError

CKPT_MAGIC = b"CSCW"
CKPT_VERSION = 1


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # (out, in) float64
    bias: np.ndarray  # (out,) float64


@dataclass
class DenseStack:
    """At least one affine layer, with a ReLU after all but the last.

    ``version`` bumps on every parameter write.
    """

    layers: list[DenseLayer]
    version: int = 0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError("a stack needs at least one layer")

    @property
    def in_width(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.layers[-1].weight.shape[0]

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
    inputs: np.ndarray  # (N, in_width), the caller's rows, not a copy
    acts: list[np.ndarray]  # per hidden layer after the first, its output after its ReLU
    live: bool = True  # False once a backward consumed it or a forward reused it
    grads: np.ndarray | None = None  # the vector the backward writes its gradient into

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


def _check_lent(name: str, buf: np.ndarray | None, shape: tuple[int, int]) -> None:
    if buf is not None and (buf.shape != shape or buf.dtype != np.float64):
        raise ShapeError(f"{name} has shape {buf.shape} {buf.dtype}, want {shape} float64")


def _hidden(layer: DenseLayer, below: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """relu(below @ W.T + b), written into ``out`` when given; ``forward``
    and ``backward``'s recompute share these operations, hence the bits."""
    h = np.matmul(below, layer.weight.T, out=out)
    h += layer.bias
    np.maximum(h, 0.0, out=h)
    return h


def forward(
    stack: DenseStack,
    inputs: np.ndarray,
    reuse: ForwardCache | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on (N, in_width) rows.

    Returns the output and a cache for ``backward``, which keeps the
    inputs themselves and holds neither the output nor the first hidden
    layer's output.  The output is written into ``out`` when given, an
    (N, out_width) float64 array the caller lends, and into a new array
    otherwise.  ``work``, when given, is an (N, width of the first hidden
    layer) float64 array the caller lends for that layer's output, which
    is dead once the next layer has read it; a stack without hidden
    layers ignores it.  When ``reuse`` is a cache of this stack over N
    rows whose arrays neither ``out`` nor ``work`` overlaps, each later
    hidden layer's output is written into its array, the new cache takes
    over its gradient vector, and ``reuse`` is dead from then on; any
    other ``reuse`` is ignored.
    """
    x = np.asarray(inputs)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[1] != stack.in_width:
        raise ShapeError(
            f"inputs have width {x.shape[1]}, stack expects {stack.in_width}"
        )
    n = x.shape[0]
    _check_lent("out", out, (n, stack.out_width))
    hidden = stack.layers[:-1]
    if hidden:
        _check_lent("work", work, (n, hidden[0].weight.shape[0]))
    else:
        work = None
    if (
        reuse is not None
        and reuse.stack is stack
        and reuse.inputs.shape == x.shape
        and [a.shape for a in reuse.acts] == [(n, l.weight.shape[0]) for l in hidden[1:]]
        and not any(
            lent is not None and np.may_share_memory(lent, a)
            for lent in (out, work)
            for a in reuse.acts
        )
    ):
        bufs, grads = reuse.acts, reuse.grads
        reuse.live = False
    else:
        bufs, grads = [None] * len(hidden[1:]), None
    acts = []
    h = x
    for layer, buf in zip(hidden, [work, *bufs]):
        h = _hidden(layer, h, buf)
        acts.append(h)
    top = stack.layers[-1]
    h = np.matmul(h, top.weight.T, out=out)
    h += top.bias
    return h, ForwardCache(stack, stack.version, x, acts[1:], grads=grads)


def backward(
    stack: DenseStack,
    upstream: np.ndarray,
    cache: ForwardCache,
    work: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of sum(upstream * output) w.r.t. parameters and inputs.

    The parameter gradient is one vector laid out by ``layer_views``: the
    cache's ``grads``, allocated here unless the cache took one over from
    the cache it reused.  The input gradient is None with
    ``input_grad=False``, which skips it.  The first hidden layer's output
    is recomputed from the cache's inputs, into ``work`` when given (as
    ``forward`` takes it), bit for bit as the forward computed it, once
    the layers above it have read ``upstream``; so with two or more hidden
    layers ``work`` may overlap ``upstream``, and with one it must not.
    Consumes ``cache``: the gradient at each hidden layer's output is
    written over that layer's output, so the cache is dead afterwards.
    ``upstream`` itself is never written to, so it may be the buffer the
    forward wrote its output into, which saves a buffer.
    """
    cache.check()
    if cache.stack is not stack:
        raise ContractViolationError("cache built for a different stack")
    g = np.asarray(upstream, dtype=np.float64)
    layers = stack.layers
    n = cache.inputs.shape[0]
    want = (n, stack.out_width)
    if g.shape != want:
        raise ShapeError(f"upstream shape {g.shape} does not match output {want}")
    if len(layers) > 1:
        _check_lent("work", work, (n, layers[0].weight.shape[0]))
        if len(layers) == 2 and work is not None and np.shares_memory(work, g):
            raise ContractViolationError(
                "work overlaps upstream, which a one-hidden-layer stack reads "
                "after recomputing into work"
            )
    cache.live = False
    if cache.grads is None:
        cache.grads = np.empty(stack.num_params)
    grads = cache.grads
    (views,) = layer_views([stack], grads)
    for i in range(len(layers) - 1, 0, -1):
        # the first hidden output is recomputed only once the layers above
        # it are done with upstream, which work may overlap
        below = _hidden(layers[0], cache.inputs, work) if i == 1 else cache.acts[i - 2]
        gw, gb = views[i]
        np.matmul(g.T, below, out=gw)
        g.sum(axis=0, out=gb)
        # the ReLU mask of the layer below, before its output is overwritten
        mask = below > 0.0
        g = np.matmul(g, layers[i].weight, out=below)
        g *= mask
        del mask  # so the next layer's mask does not coexist with it
    gw, gb = views[0]
    np.matmul(g.T, cache.inputs, out=gw)
    g.sum(axis=0, out=gb)
    return grads, g @ layers[0].weight if input_grad else None


# ---------------------------------------------------------------------------
# pooling


class Regions:
    """Q groups of row indices into ``num_rows`` rows, laid out flat.

    Group i is ``members[offsets[i]:offsets[i + 1]]``; ``offsets`` has Q+1
    entries.  A group may be empty, and groups may share rows.  The
    members are range-checked once, here, and made read-only, so pooling
    them checks nothing.
    """

    def __init__(self, groups, num_rows: int):
        m = np.concatenate([np.empty(0, np.int64), *groups], dtype=np.int64,
                           casting="same_kind")
        self.offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum([len(g) for g in groups], out=self.offsets[1:])
        bad = np.flatnonzero((m < 0) | (m >= num_rows))
        if bad.size:
            i = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
            raise ShapeError(f"group {i} indexes outside [0,{num_rows})")
        self.members, self.num_rows = m, num_rows
        m.flags.writeable = self.offsets.flags.writeable = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        """Each group's members, in group order, as views of ``members``."""
        bounds = self.offsets.tolist()
        for start, end in zip(bounds[:-1], bounds[1:]):
            yield self.members[start:end]


@dataclass
class PoolCache:
    regions: Regions
    means: np.ndarray  # (Q, D) pre-normalization means
    norms: np.ndarray  # (Q,)
    valid: np.ndarray  # (Q,) bool


def pool_regions(
    features: np.ndarray, regions: Regions
) -> tuple[np.ndarray, np.ndarray, PoolCache]:
    """Mean member rows per region, L2-normalized; (rows, valid, cache).

    A region that is empty, or whose mean cancels to (near) zero, is marked
    invalid and its output row is zero.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or len(feats) != regions.num_rows:
        raise ShapeError(f"features must be ({regions.num_rows}, D), got {feats.shape}")
    q = len(regions)
    means = np.zeros((q, feats.shape[1]))
    valid = np.zeros(q, dtype=bool)
    for i, idx in enumerate(regions):
        if len(idx) == 0:
            continue
        # what ndarray.mean computes, without its Python-level wrapper
        means[i] = np.add.reduce(feats[idx], axis=0) / len(idx)
        valid[i] = True
    norms = np.linalg.norm(means, axis=1)
    degenerate = norms < 1e-12
    valid &= ~degenerate
    safe = np.where(valid, norms, 1.0)
    rows = np.where(valid[:, None], means / safe[:, None], 0.0)
    return rows, valid, PoolCache(regions, means, norms, valid)


def pool_backward(
    upstream: np.ndarray, cache: PoolCache, out: np.ndarray | None = None
) -> np.ndarray:
    """Push row gradients back through normalize-then-mean to member rows.

    ``out``, if given, is an (N, D) float64 array overwritten with the
    result, such as the buffer the stack's output was pooled from.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache.means.shape:
        raise ShapeError(f"upstream shape {g.shape} != {cache.means.shape}")
    shape = (cache.regions.num_rows, cache.means.shape[1])
    _check_lent("out", out, shape)
    if out is None:
        out = np.zeros(shape)
    else:
        out.fill(0.0)
    for i, idx in enumerate(cache.regions):
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
    layers = [l for s in stacks for l in s.layers]
    chunks = [pack_u32(len(layers))]
    for l in layers:
        chunks += [pack_u32(*l.weight.shape), pack_array(l.weight, "float64"),
                   pack_array(l.bias, "float64")]
    write_container(path, CKPT_MAGIC, CKPT_VERSION, chunks)


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Raw (weight, bias) pairs; wiring back onto stacks is the caller's job."""
    cur = read_container(path, CKPT_MAGIC, CKPT_VERSION, CheckpointFormatError)
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
