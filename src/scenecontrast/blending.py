"""Prototype blending: per-modality projection plus per-class fusion.

Each modality's prototypes pass through their own dense stack, the two
projected rows of one class are concatenated and fused by a shared stack,
and the result is L2-normalized into the mixed prototype for that class.
Everything is row-local: class t's mixed prototype depends only on class
t's inputs.

The backward pass returns gradients for the three parameter stacks only;
by construction none flow back into the prototype bank (prototypes are
treated as constants of the step).
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

    def validate(self, d: int) -> None:
        for name, s, wi, wo in (
            ("proj2d", self.proj2d, d, d),
            ("proj3d", self.proj3d, d, d),
            ("fuse", self.fuse, 2 * d, d),
        ):
            s.validate()
            if s.in_width != wi or s.out_width != wo:
                raise ShapeError(
                    f"{name} must map {wi}->{wo}, got "
                    f"{s.in_width}->{s.out_width}"
                )


def init_blend_params(
    d: int, rng: np.random.Generator, proj_depth: int = 1
) -> BlendParams:
    """Affine projections (depth configurable) and a single affine fuse.

    Residual-flavoured start: projections sit near the identity and the
    fusion near the two-modality average, so the first mixed prototypes
    are already a plausible blend instead of a random mixture.  Training
    has to break the symmetry from there.
    """
    def near(mat: np.ndarray) -> np.ndarray:
        return mat + rng.normal(0.0, 0.05, size=mat.shape)

    def proj_stack() -> embednet.DenseStack:
        layers = [
            embednet.DenseLayer(
                weight=near(np.eye(d)), bias=np.zeros(d), activation="none"
            )
            for _ in range(proj_depth)
        ]
        return embednet.DenseStack(layers)

    half = 0.5 * np.concatenate([np.eye(d), np.eye(d)], axis=1)
    params = BlendParams(
        proj2d=proj_stack(),
        proj3d=proj_stack(),
        fuse=embednet.DenseStack(
            [embednet.DenseLayer(weight=near(half), bias=np.zeros(d), activation="none")]
        ),
    )
    params.validate(d)
    return params


@dataclass
class BlendCache:
    cache2d: ForwardCache
    cache3d: ForwardCache
    cache_fuse: ForwardCache
    fused: np.ndarray  # (C, D) pre-normalization fuse outputs
    norms: np.ndarray  # (C,)


@dataclass
class BlendGrads:
    proj2d: list[tuple[np.ndarray, np.ndarray]]
    proj3d: list[tuple[np.ndarray, np.ndarray]]
    fuse: list[tuple[np.ndarray, np.ndarray]]


def blend(bank: PrototypeBank, params: BlendParams) -> BlendCache:
    """Fill bank.pmix; return the backward cache, which holds the projections.

    Raises DegenerateBatchError if a fused prototype collapses to zero norm,
    a numerical collapse of this batch's data, so the caller skips the step.
    """
    d = bank.p2d.shape[1]
    params.validate(d)
    bar2d, cache2d = embednet.forward(params.proj2d, bank.p2d)
    bar3d, cache3d = embednet.forward(params.proj3d, bank.p3d)
    fused, cache_fuse = embednet.forward(
        params.fuse, np.concatenate([bar2d, bar3d], axis=1)
    )
    norms = np.linalg.norm(fused, axis=1)
    if (norms < 1e-12).any():
        raise DegenerateBatchError("fused prototype collapsed to zero norm")
    bank.pmix = fused / norms[:, None]
    return BlendCache(cache2d, cache3d, cache_fuse, fused, norms)


def blend_backward(upstream: np.ndarray, cache: BlendCache) -> BlendGrads:
    """Exact gradients on the three stacks for d(sum(upstream * pmix))."""
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache.fused.shape:
        raise ShapeError(f"upstream shape {g.shape} != {cache.fused.shape}")
    # backward through row-wise v / ||v||
    u = cache.fused / cache.norms[:, None]
    g_fused = (g - np.sum(g * u, axis=1, keepdims=True) * u) / cache.norms[:, None]
    fuse_stack = cache.cache_fuse.stack
    fuse_grads, g_concat = embednet.backward(fuse_stack, g_fused, cache.cache_fuse)
    d = cache.cache2d.stack.out_width
    g2d = g_concat[:, :d]
    g3d = g_concat[:, d:]
    grads2d, _ = embednet.backward(cache.cache2d.stack, g2d, cache.cache2d)
    grads3d, _ = embednet.backward(cache.cache3d.stack, g3d, cache.cache3d)
    return BlendGrads(proj2d=grads2d, proj3d=grads3d, fuse=fuse_grads)
