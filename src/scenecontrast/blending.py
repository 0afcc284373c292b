"""Prototype blending: per-modality projection plus per-class fusion.

Each modality's prototypes pass through their own dense stack, the two
projected rows of one class are concatenated and fused by a shared stack,
and the result is L2-normalized into the mixed prototype for that class.
Everything is row-local: class t's mixed prototype depends only on class
t's inputs.  ``blend`` returns the mixed prototypes in its cache, which the
step hands to the prototype loss and, with the loss's gradient on them, to
``blend_backward``.

All three stacks are single affine layers.  The backward pass returns one
flat gradient vector over proj2d, proj3d and fuse, in that order and laid
out by ``embednet.layer_views``, which is how these stacks sit at the end
of the model's parameter buffer.  By construction no gradient flows back
into the prototype bank (prototypes are treated as constants of the step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embednet
from .embednet import DenseStack, ForwardCache
from .errors import DegenerateBatchError, ShapeError
from .protobank import PrototypeBank


@dataclass
class BlendParams:
    proj2d: DenseStack  # D -> D
    proj3d: DenseStack  # D -> D
    fuse: DenseStack  # 2D -> D

    def stacks(self) -> list[DenseStack]:
        return [self.proj2d, self.proj3d, self.fuse]


def init_blend_params(d: int, rng: np.random.Generator) -> BlendParams:
    """Affine projections and an affine fuse, each a single layer.

    Residual-flavoured start: projections sit near the identity and the
    fusion near the two-modality average, so the first mixed prototypes
    are already a plausible blend instead of a random mixture.  Training
    has to break the symmetry from there.
    """
    def affine_near(mat: np.ndarray) -> DenseStack:
        w = mat + rng.normal(0.0, 0.05, size=mat.shape)
        return DenseStack([embednet.DenseLayer(weight=w, bias=np.zeros(d))])

    half = 0.5 * np.concatenate([np.eye(d), np.eye(d)], axis=1)
    return BlendParams(
        proj2d=affine_near(np.eye(d)),
        proj3d=affine_near(np.eye(d)),
        fuse=affine_near(half),
    )


@dataclass
class BlendCache:
    """The mixed prototypes and what ``blend_backward`` needs to reach them.

    ``pmix`` is the fuse outputs divided by their row ``norms``; row i
    belongs to the bank's ``class_ids[i]``.
    """

    cache2d: ForwardCache
    cache3d: ForwardCache
    cache_fuse: ForwardCache
    pmix: np.ndarray  # (C, D) unit rows
    norms: np.ndarray  # (C,) norms of the fuse outputs


def blend(bank: PrototypeBank, params: BlendParams) -> BlendCache:
    """Mix the bank's two prototype tables into unit rows, one per class.

    Returns the cache, which holds the mixed prototypes and the stacks'
    forward caches; the bank is left as it was.  Raises DegenerateBatchError
    if a fused prototype collapses to zero norm, a numerical collapse of
    this batch's data, so the caller skips the step.
    """
    bar2d, cache2d = embednet.forward(params.proj2d, bank.p2d)
    bar3d, cache3d = embednet.forward(params.proj3d, bank.p3d)
    fused, cache_fuse = embednet.forward(
        params.fuse, np.concatenate([bar2d, bar3d], axis=1)
    )
    norms = np.linalg.norm(fused, axis=1)
    if (norms < 1e-12).any():
        raise DegenerateBatchError("fused prototype collapsed to zero norm")
    return BlendCache(cache2d, cache3d, cache_fuse, fused / norms[:, None], norms)


def blend_backward(upstream: np.ndarray, cache: BlendCache) -> np.ndarray:
    """Exact gradient on the three stacks for d(sum(upstream * pmix)).

    One new vector: proj2d's parameters, then proj3d's, then fuse's.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache.pmix.shape:
        raise ShapeError(f"upstream shape {g.shape} != {cache.pmix.shape}")
    # backward through row-wise v / ||v||
    u = cache.pmix
    g_fused = (g - np.sum(g * u, axis=1, keepdims=True) * u) / cache.norms[:, None]
    fuse_stack = cache.cache_fuse.stack
    grads_fuse, g_concat = embednet.backward(fuse_stack, g_fused, cache.cache_fuse)
    d = cache.cache2d.stack.out_width
    grads2d, _ = embednet.backward(
        cache.cache2d.stack, g_concat[:, :d], cache.cache2d, input_grad=False
    )
    grads3d, _ = embednet.backward(
        cache.cache3d.stack, g_concat[:, d:], cache.cache3d, input_grad=False
    )
    return np.concatenate([grads2d, grads3d, grads_fuse])
