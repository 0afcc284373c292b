"""Blending module: selector fixtures, scalar-loop oracle, FD gradients."""

import numpy as np
import pytest

from fdutil import central_diff, max_rel_err, set_stack_params, stack_params
from scenecontrast.blending import (
    BlendParams,
    blend,
    blend_backward,
    init_blend_params,
)
from scenecontrast.embednet import DenseLayer, DenseStack
from scenecontrast.errors import ContractViolationError, DegenerateBatchError, ShapeError
from scenecontrast.protobank import PrototypeBank


def make_bank(rng, c=4, d=3):
    return PrototypeBank(
        class_ids=np.arange(c),
        p2d=rng.normal(size=(c, d)),
        p3d=rng.normal(size=(c, d)),
        counts=np.ones(c, dtype=np.int64),
    )


def affine(weight, bias=None):
    weight = np.asarray(weight, dtype=np.float64)
    if bias is None:
        bias = np.zeros(weight.shape[0])
    return DenseStack([DenseLayer(weight=weight, bias=bias)])


def selector_params(d, side):
    """Identity projections; fuse passes through one modality untouched."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    fuse_w = np.concatenate([eye, zero] if side == "2d" else [zero, eye], axis=1)
    return BlendParams(proj2d=affine(eye), proj3d=affine(eye), fuse=affine(fuse_w))


def test_selector_passes_2d(rng):
    bank = make_bank(rng)
    cache = blend(bank, selector_params(3, "2d"))
    want = bank.p2d / np.linalg.norm(bank.p2d, axis=1, keepdims=True)
    assert np.allclose(cache.pmix, want, atol=1e-15)
    # the 2D projection, as the fuse stack's input holds it
    assert np.array_equal(cache.cache_fuse.inputs[:, :3], bank.p2d)


def test_selector_passes_3d(rng):
    bank = make_bank(rng)
    pmix = blend(bank, selector_params(3, "3d")).pmix
    want = bank.p3d / np.linalg.norm(bank.p3d, axis=1, keepdims=True)
    assert np.allclose(pmix, want, atol=1e-15)


def test_scalar_loop_oracle(rng):
    """Recompute each mixed prototype with explicit per-class loops."""
    d = 3
    bank = make_bank(rng, c=5, d=d)
    params = init_blend_params(d, rng)
    pmix = blend(bank, params).pmix
    w2, b2 = params.proj2d.layers[0].weight, params.proj2d.layers[0].bias
    w3, b3 = params.proj3d.layers[0].weight, params.proj3d.layers[0].bias
    wf, bf = params.fuse.layers[0].weight, params.fuse.layers[0].bias
    for t in range(5):
        y2 = np.array([sum(w2[i, j] * bank.p2d[t, j] for j in range(d)) + b2[i]
                       for i in range(d)])
        y3 = np.array([sum(w3[i, j] * bank.p3d[t, j] for j in range(d)) + b3[i]
                       for i in range(d)])
        cat = np.concatenate([y2, y3])
        z = np.array([sum(wf[i, j] * cat[j] for j in range(2 * d)) + bf[i]
                      for i in range(d)])
        assert max_rel_err(pmix[t], z / np.linalg.norm(z)) < 1e-12


def test_unit_norm_rows(rng):
    bank = make_bank(rng, c=6, d=5)
    pmix = blend(bank, init_blend_params(5, rng)).pmix
    assert np.allclose(np.linalg.norm(pmix, axis=1), 1.0, atol=1e-12)


def test_per_class_locality(rng):
    bank = make_bank(rng)
    params = init_blend_params(3, rng)
    before = blend(bank, params).pmix
    bank.p2d[1] += 0.3
    after = blend(bank, params).pmix
    assert not np.allclose(after[1], before[1])
    for t in (0, 2, 3):
        assert np.array_equal(after[t], before[t])


def test_fd_param_gradients(rng):
    d = 4
    checked = 0
    for trial in range(12):
        bank = make_bank(rng, c=5, d=d)
        params = init_blend_params(d, rng)
        upstream = rng.normal(size=(5, d))
        cache = blend(bank, params)
        if cache.norms.min() < 1e-3:
            continue  # normalization near-singular: FD unreliable here
        grads = blend_backward(upstream, cache)
        assert grads.shape == (sum(s.num_params for s in params.stacks()),)
        at = 0
        for name, stack in (
            ("proj2d", params.proj2d),
            ("proj3d", params.proj3d),
            ("fuse", params.fuse),
        ):
            # the vector holds each stack's parameters in this order
            analytic = grads[at : at + stack.num_params]
            at += stack.num_params
            saved = stack_params(stack)
            theta = saved.copy()

            def objective(stack=stack, theta=theta):
                set_stack_params(stack, theta)
                return float(np.sum(upstream * blend(bank, params).pmix))

            numeric = central_diff(objective, theta)
            set_stack_params(stack, saved)
            assert max_rel_err(analytic, numeric) < 1e-4, name
        checked += 1
    assert checked >= 8


def test_zero_upstream_zero_grads(rng):
    bank = make_bank(rng)
    cache = blend(bank, init_blend_params(3, rng))
    grads = blend_backward(np.zeros((4, 3)), cache)
    assert grads.shape == (2 * (3 * 3 + 3) + 3 * 6 + 3,)  # proj2d, proj3d, fuse
    assert not grads.any()


def test_stale_cache_rejected(rng):
    bank = make_bank(rng)
    params = init_blend_params(3, rng)
    cache = blend(bank, params)
    set_stack_params(params.fuse, stack_params(params.fuse))  # bumps the version counter
    with pytest.raises(ContractViolationError):
        blend_backward(np.ones((4, 3)), cache)


def test_init_blend_params_maps_d_d_and_2d_to_d(rng):
    for d in range(1, 9):
        params = init_blend_params(d, rng)
        widths = [(len(s.layers), s.in_width, s.out_width) for s in params.stacks()]
        assert widths == [(1, d, d), (1, d, d), (1, 2 * d, d)]
        for s in params.stacks():
            assert s.layers[0].bias.shape == (d,)
            assert np.isfinite(s.layers[0].weight).all() and not s.layers[0].bias.any()


def test_width_mismatch(rng):
    bank = make_bank(rng, d=4)
    with pytest.raises(ShapeError):
        blend(bank, init_blend_params(3, rng))


def test_upstream_shape_mismatch(rng):
    bank = make_bank(rng)
    cache = blend(bank, init_blend_params(3, rng))
    with pytest.raises(ShapeError):
        blend_backward(np.ones((2, 3)), cache)


def test_collapsed_fuse_rejected(rng):
    bank = make_bank(rng)
    params = selector_params(3, "2d")
    params.fuse.layers[0].weight[:] = 0.0
    with pytest.raises(DegenerateBatchError, match="fused prototype collapsed"):
        blend(bank, params)
