"""Dense stacks, pooling, the parameter layout and the checkpoint format."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenecontrast import embednet
from scenecontrast.embednet import (
    DenseLayer,
    DenseStack,
    Regions,
    backward,
    forward,
    init_stack,
    layer_views,
    load_layers,
    make_bank,
    pack_params,
    pool_backward,
    pool_regions,
    read_checkpoint,
    write_checkpoint,
)
from scenecontrast.errors import (
    ConfigurationError,
    ContractViolationError,
    FormatError,
    ShapeError,
)
from scenecontrast.trainer import init_model, load_model, save_model

from fdutil import (
    central_diff,
    loop_pool_backward,
    loop_pool_regions,
    max_rel_err,
    region_groups,
    set_stack_params,
    stack_params,
    stored_backward,
    stored_forward,
)


def test_identity_layer_passthrough(rng):
    stack = DenseStack([DenseLayer(np.eye(4), np.zeros(4))])
    x = rng.normal(size=(5, 4))
    out, _ = forward(stack, x)
    assert np.allclose(out, x)


def test_relu_zeroes_negative_input():
    # the hidden layer's ReLU zeroes it; the last layer adds only its bias
    bias = np.array([0.5, -0.25, 0.0])
    stack = DenseStack(
        [DenseLayer(np.eye(3), np.zeros(3)), DenseLayer(np.eye(3), bias.copy())]
    )
    work = np.full((2, 3), np.nan)
    out, cache = forward(stack, -np.ones((2, 3)), work=work)
    assert np.all(work == 0.0)
    assert np.array_equal(out, np.tile(bias, (2, 1)))  # negative entries kept
    # the top weight's gradient is upstream.T @ the recomputed hidden output
    grads, _ = backward(stack, np.ones((2, 3)), cache)
    (views,) = layer_views([stack], grads)
    assert np.all(views[1][0] == 0.0)
    assert np.array_equal(views[1][1], [2.0, 2.0, 2.0])


def test_two_layer_hand_evaluation():
    w0 = np.array([[0.5, -1.0], [2.0, 0.25], [-0.5, 1.5]])
    b0 = np.array([0.1, -0.2, 0.3])
    w1 = np.array([[1.0, -1.0, 0.5]])
    b1 = np.array([-0.05])
    stack = DenseStack([DenseLayer(w0, b0), DenseLayer(w1, b1)])
    x = np.array([[0.7, -0.3]])
    # step-by-step scalar evaluation
    h = []
    for r in range(3):
        z = b0[r]
        for c in range(2):
            z += w0[r, c] * x[0, c]
        h.append(max(z, 0.0))
    y = b1[0]
    for c in range(3):
        y += w1[0, c] * h[c]
    out, _ = forward(stack, x)
    assert abs(out[0, 0] - y) < 1e-12


def test_forward_width_mismatch():
    stack = DenseStack([DenseLayer(np.eye(3), np.zeros(3))])
    with pytest.raises(ShapeError):
        forward(stack, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        forward(stack, np.zeros(3))


def test_empty_stack_rejected(rng):
    with pytest.raises(ShapeError, match="at least one layer"):
        DenseStack([])
    with pytest.raises(ShapeError, match="at least one layer"):
        init_stack([4], rng)


def test_backward_zero_upstream(rng):
    stack = init_stack([4, 6, 3], rng)
    x = rng.normal(size=(5, 4))
    _, cache = forward(stack, x)
    grads, gx = backward(stack, np.zeros((5, 3)), cache)
    assert grads.shape == (stack.num_params,)
    assert np.all(grads == 0)
    assert np.all(gx == 0)


def test_stale_cache_rejected(rng):
    stack = init_stack([4, 3], rng)
    x = rng.normal(size=(2, 4))
    _, cache = forward(stack, x)
    set_stack_params(stack, stack_params(stack) * 1.01)  # parameter update bumps version
    with pytest.raises(ContractViolationError, match="stale"):
        backward(stack, np.ones((2, 3)), cache)


def test_consumed_cache_rejected(rng):
    stack = init_stack([4, 5, 3], rng)
    _, cache = forward(stack, rng.normal(size=(6, 4)))
    backward(stack, np.ones((6, 3)), cache)
    with pytest.raises(ContractViolationError, match="consumed"):
        backward(stack, np.ones((6, 3)), cache)


def test_reused_cache_rejected(rng):
    # two hidden layers, so the cache keeps an array for the reuse to take
    stack = init_stack([4, 5, 6, 3], rng)
    x = rng.normal(size=(6, 4))
    _, old = forward(stack, x)
    taken = list(old.acts)  # the reusing forward empties old.acts
    out, new = forward(stack, x, reuse=old)
    assert len(taken) == 1
    assert all(np.shares_memory(a, b) for a, b in zip(taken, new.acts, strict=True))
    with pytest.raises(ContractViolationError, match="reused"):
        backward(stack, np.ones((6, 3)), old)
    backward(stack, np.ones((6, 3)), new)


def test_a_cache_gives_its_arrays_up_once(rng):
    # a second forward from the same cache gets arrays of its own, so each
    # backward gives what a fresh forward's does
    stack = init_stack([5, 7, 6, 3], rng)
    x, y, z = (rng.normal(size=(9, 5)) for _ in range(3))
    up = rng.normal(size=(9, 3))
    _, cache = forward(stack, x)
    backward(stack, up, cache)
    _, first = forward(stack, y, reuse=cache)
    _, second = forward(stack, z, reuse=cache)
    assert cache.acts == [] and cache.grads is None
    assert len(first.acts) == len(second.acts) == 1
    assert not np.shares_memory(first.acts[0], second.acts[0])
    g1, g2 = backward(stack, up, first), backward(stack, up, second)
    assert not np.shares_memory(g1[0], g2[0])
    assert as_bytes(*g1) == as_bytes(*reference_grads(stack, y, up))
    assert as_bytes(*g2) == as_bytes(*reference_grads(stack, z, up))


def reference_grads(stack, x, upstream):
    """Backward on a fresh cache, with its own copy of upstream."""
    _, cache = forward(stack, x)
    return backward(stack, upstream.copy(), cache)


def as_bytes(grads, gx):
    return [grads.tobytes(), gx.tobytes()]


def test_reuse_writes_the_same_bytes(rng):
    # the reused arrays hold the gradients the consuming backward left there
    stack = init_stack([5, 7, 6, 3], rng)
    x, y = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
    up = rng.normal(size=(9, 3))
    want, _ = forward(stack, y)
    _, cache = forward(stack, x)
    backward(stack, up, cache)
    got, again = forward(stack, y, reuse=cache)
    assert got.tobytes() == want.tobytes()
    assert as_bytes(*backward(stack, up, again)) == as_bytes(
        *reference_grads(stack, y, up)
    )


def test_reuse_ignored_when_it_does_not_fit(rng):
    stack = init_stack([4, 5, 5, 3], rng)
    other = init_stack([4, 5, 5, 3], rng)
    _, cache = forward(stack, rng.normal(size=(6, 4)))
    kept = [cache.inputs, *cache.acts]
    assert len(cache.acts) == 1
    # other rows, another stack, or a lent output or work buffer over the
    # cache's arrays
    for s, x, out, work in ((stack, rng.normal(size=(7, 4)), None, None),
                            (other, rng.normal(size=(6, 4)), None, None),
                            (stack, rng.normal(size=(6, 4)), cache.acts[0][:, :3], None),
                            (stack, rng.normal(size=(6, 4)), None, cache.acts[0])):
        _, fresh = forward(s, x, reuse=cache, out=out, work=work)
        assert not any(
            np.shares_memory(a, b) for a in [fresh.inputs, *fresh.acts] for b in kept
        )
    backward(stack, np.ones((6, 3)), cache)  # still live


def test_reuse_over_float32_inputs_writes_the_same_bytes(rng):
    # the scene files' dtype, kept as it is and cast inside each product
    stack = init_stack([5, 7, 6, 3], rng)
    x = rng.normal(size=(9, 5)).astype(np.float32)
    y = rng.normal(size=(9, 5)).astype(np.float32)
    up = rng.normal(size=(9, 3))
    want, _ = forward(stack, y.astype(np.float64))
    _, cache = forward(stack, x)
    backward(stack, up, cache)
    lent = np.empty((9, 3))
    got, again = forward(stack, y, reuse=cache, out=lent)
    assert got is lent and got.tobytes() == want.tobytes()
    assert again.inputs is y and cache.inputs is x
    assert as_bytes(*backward(stack, up, again)) == as_bytes(
        *reference_grads(stack, y.astype(np.float64), up)
    )
    # the reused cache's inputs may themselves be the new inputs
    _, cache = forward(stack, y)
    got, _ = forward(stack, cache.inputs, reuse=cache)
    assert got.tobytes() == want.tobytes()


def test_lent_output_must_fit(rng):
    stack = init_stack([4, 5, 3], rng)
    x = rng.normal(size=(6, 4))
    for out in (np.empty((6, 4)), np.empty((5, 3)), np.empty((6, 3), np.float32)):
        with pytest.raises(ShapeError, match="out has shape"):
            forward(stack, x, out=out)


def test_lent_work_must_fit(rng):
    stack = init_stack([4, 5, 3], rng)
    x = rng.normal(size=(6, 4))
    for work in (np.empty((6, 3)), np.empty((5, 5)), np.empty((6, 5), np.float32)):
        with pytest.raises(ShapeError, match="work has shape"):
            forward(stack, x, work=work)
        _, cache = forward(stack, x)
        with pytest.raises(ShapeError, match="work has shape"):
            backward(stack, np.ones((6, 3)), cache, work=work)
    # a stack without hidden layers has no first hidden output to lend for
    forward(init_stack([4, 3], rng), x, work=np.empty((6, 5), np.float32))


def test_output_as_upstream(rng):
    # backward never reads the output, so the buffer lent for it can hold
    # upstream, as the training step's lane scratch does
    stack = init_stack([4, 6, 5, 3], rng)
    x = rng.normal(size=(8, 4))
    up = rng.normal(size=(8, 3))
    out = np.empty((8, 3))
    _, cache = forward(stack, x, out=out)
    out[...] = up
    assert as_bytes(*backward(stack, out, cache)) == as_bytes(
        *reference_grads(stack, x, up)
    )
    assert out.tobytes() == up.tobytes()  # upstream is read, never written


def test_glorot_bounds(rng):
    stack = init_stack([10, 20], rng)
    a = np.sqrt(6.0 / 30.0)
    w = stack.layers[0].weight
    assert np.all(np.abs(w) <= a)
    assert w.std() > a / 4  # actually spread out, not degenerate
    assert np.all(stack.layers[0].bias == 0.0)


def preactivations(stack, x):
    """Each layer's affine output from x; all but the last feed a ReLU."""
    zs, h = [], x
    for layer in stack.layers:
        z = h @ layer.weight.T + layer.bias
        zs.append(z)
        h = np.maximum(z, 0.0)
    return zs


def test_cache_holds_inputs_and_hidden_activations(rng):
    stack = init_stack([5, 7, 6, 4, 3], rng)
    x = rng.normal(size=(9, 5)).astype(np.float32)
    x64 = x.astype(np.float64)
    out, cache = forward(stack, x)
    zs = preactivations(stack, x64)
    relu = [np.maximum(z, 0.0).tobytes() for z in zs[:-1]]
    # the inputs themselves, not a copy, and the outputs of the hidden
    # layers after the first; the first hidden layer's output and the last
    # layer's output are not kept
    assert cache.inputs is x and x.dtype == np.float32
    assert [a.tobytes() for a in cache.acts] == relu[1:]
    assert out.tobytes() == zs[-1].tobytes()
    assert not any(np.shares_memory(out, a) for a in [x, *cache.acts])
    # the lent buffers: the output, and the first hidden output in work
    lent, work = np.empty((9, 3)), np.empty((9, 7))
    got, cache = forward(stack, x, out=lent, work=work)
    assert got is lent and got.tobytes() == out.tobytes()
    assert work.tobytes() == relu[0]
    assert cache.inputs is x
    assert not any(
        np.shares_memory(b, a) for b in (lent, work) for a in [x, *cache.acts]
    )


# "shared" lends one buffer that holds the output, the upstream and the
# first hidden output in turn, as the training step's lanes do; with one
# hidden layer, whose backward reads upstream after the recompute, work
# follows the output in that buffer instead of overlapping it
@pytest.mark.parametrize("input_grad", [True, False], ids=["input-grad", "no-input-grad"])
@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reuse"])
@pytest.mark.parametrize("lend", ["own", "lent", "shared"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_recompute_matches_the_stored_oracle(depth, dtype, lend, reuse, input_grad):
    rng = np.random.default_rng(depth)
    n = 11
    widths = [5, *(int(w) for w in rng.integers(3, 9, size=depth))]
    stack = init_stack(widths, rng)
    x, y = (rng.normal(size=(n, widths[0])).astype(dtype) for _ in range(2))
    up = rng.normal(size=(n, widths[-1]))
    want_out, ref = stored_forward(stack, y)
    want_grads, want_gx = stored_backward(stack, up, ref)

    def lent():
        # a stack without hidden layers ignores work of any width
        if lend == "own":
            return {}
        if lend == "lent":
            return {"out": np.full((n, widths[-1]), np.nan),
                    "work": np.full((n, widths[1]), np.nan)}
        at = n * widths[-1] if depth == 2 else 0
        buf = np.full(at + n * max(widths[-1], widths[1]), np.nan)
        return {"out": buf[: n * widths[-1]].reshape(n, widths[-1]),
                "work": buf[at : at + n * widths[1]].reshape(n, widths[1])}

    def upstream(bufs):
        # in the shared buffer, over the output, as the pooled gradient is
        if lend != "shared":
            return up
        bufs["out"][...] = up
        return bufs["out"]

    kept = None
    if reuse:
        bufs = lent()
        _, kept = forward(stack, x, **bufs)
        backward(stack, upstream(bufs), kept, work=bufs.get("work"))
        taken = kept.acts, kept.grads
    bufs = lent()
    out, cache = forward(stack, y, reuse=kept, **bufs)
    assert cache.inputs is y
    assert out.tobytes() == want_out.tobytes()
    if reuse:  # the reusing forward takes the arrays and leaves the old cache empty
        assert all(a is b for a, b in zip(taken[0], cache.acts, strict=True))
        assert kept.acts == [] and kept.grads is None
    grads, gx = backward(
        stack, upstream(bufs), cache, work=bufs.get("work"), input_grad=input_grad
    )
    assert grads.tobytes() == want_grads.tobytes()
    if reuse:  # a reusing forward takes over the gradient vector too
        assert grads is taken[1]
    if input_grad:
        assert gx.tobytes() == want_gx.tobytes()
    else:
        assert gx is None


def test_one_hidden_layer_rejects_work_over_upstream(rng):
    # its backward recomputes the first hidden output before it reads upstream
    stack = init_stack([4, 5, 3], rng)
    x = rng.normal(size=(6, 4))
    buf = np.empty(6 * 5)
    out, work = buf[:18].reshape(6, 3), buf.reshape(6, 5)
    _, cache = forward(stack, x, out=out, work=work)
    with pytest.raises(ContractViolationError, match="work overlaps upstream"):
        backward(stack, out, cache, work=work)
    backward(stack, out, cache, work=np.empty((6, 5)))  # still live


def test_gradients_match_fd(rng):
    """Analytic stack gradients vs the test-local central differences."""
    worst = 0.0
    trials = 0
    while trials < 25:
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        stack = init_stack(widths, rng)
        x = rng.normal(size=(int(rng.integers(1, 6)), widths[0]))
        w = rng.normal(size=(x.shape[0], widths[-1]))

        def f():
            return float(np.sum(w * forward(stack, x)[0]))

        _, cache = forward(stack, x)
        # on the recomputed pre-activations: a cached ReLU output of 0 does
        # not tell how far below the kink its input was
        if any(np.min(np.abs(z)) < 1e-4 for z in preactivations(stack, x)[:-1]):
            continue  # finite differences straddle the kink
        grads, gx = backward(stack, w, cache)
        analytic = np.concatenate([grads, gx.ravel()])
        numeric = []
        for layer in stack.layers:
            numeric.append(central_diff(f, layer.weight).ravel())
            numeric.append(central_diff(f, layer.bias))
        numeric.append(central_diff(f, x).ravel())
        worst = max(worst, max_rel_err(analytic, np.concatenate(numeric)))
        trials += 1
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# pooling


def pool(feats, groups):
    return pool_regions(feats, Regions(groups, len(feats)))


def test_pool_identical_rows():
    v = np.array([3.0, 4.0])
    feats = np.stack([v, v, v])
    rows, valid, _ = pool(feats, [np.array([0, 1, 2])])
    assert valid[0]
    assert np.allclose(rows[0], v / 5.0)


def test_pool_cancellation_invalid():
    v = np.array([1.0, -2.0, 0.5])
    rows, valid, _ = pool(np.stack([v, -v]), [np.array([0, 1])])
    assert not valid[0]
    assert np.all(rows[0] == 0.0)


def test_pool_empty_group_invalid(rng):
    feats = rng.normal(size=(4, 3))
    rows, valid, _ = pool(feats, [np.array([], dtype=int), np.array([1])])
    assert not valid[0]
    assert valid[1]


def test_pool_three_member_oracle():
    feats = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [9.0, 9.0]])
    rows, valid, _ = pool(feats, [np.array([0, 1, 2])])
    # scalar-loop mean and normalize
    mean = [0.0, 0.0]
    for i in (0, 1, 2):
        for d in range(2):
            mean[d] += feats[i, d] / 3.0
    norm = (mean[0] ** 2 + mean[1] ** 2) ** 0.5
    assert valid[0]
    assert abs(rows[0, 0] - mean[0] / norm) < 1e-12
    assert abs(rows[0, 1] - mean[1] / norm) < 1e-12


def test_pool_rows_unit_norm(rng):
    feats = rng.normal(size=(30, 8))
    groups = [np.arange(0, 10), np.arange(10, 11), np.arange(11, 30)]
    rows, valid, _ = pool(feats, groups)
    norms = np.linalg.norm(rows[valid], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_pool_rows_unit_norm_just_above_the_degenerate_threshold(rng):
    # members of about 1e-11 give means a little above pooling's 1e-12 cut
    groups = [np.arange(i, i + 4) for i in range(0, 40, 4)]
    for d in (1, 2, 8, 32):
        rows, valid, cache = pool(rng.normal(size=(40, d)) * 1e-11, groups)
        assert valid.all()
        assert cache.norms.max() < 1e-10
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pool_permutation_invariance(seed):
    r = np.random.default_rng(seed)
    feats = r.normal(size=(12, 4))
    idx = r.choice(12, size=6, replace=False)
    rows_a, valid_a, _ = pool(feats, [idx])
    rows_b, valid_b, _ = pool(feats, [r.permutation(idx)])
    assert valid_a[0] == valid_b[0]
    assert np.allclose(rows_a, rows_b, atol=1e-12)


def test_pool_group_out_of_range(rng):
    with pytest.raises(ShapeError):
        pool(rng.normal(size=(3, 2)), [np.array([5])])


@pytest.mark.parametrize(
    "groups,index",
    [([[0, 1], [5]], 1), ([[], [2], [0, -1]], 2), ([[3], [], [], [1, 0, 3]], 0)],
)
def test_regions_reject_members_out_of_range(groups, index):
    with pytest.raises(ShapeError, match=rf"group {index} indexes outside \[0,3\)"):
        Regions([np.array(g, dtype=np.int64) for g in groups], 3)


def test_regions_reject_a_member_that_int32_would_wrap_into_range():
    # 2**32 + 1 narrows to 1, so the range is checked at the group's width
    with pytest.raises(ShapeError, match=r"group 1 indexes outside \[0,3\)"):
        Regions([np.array([0]), np.array([2, 2**32 + 1])], 3)
    with pytest.raises(ShapeError, match="num_rows 2147483648 does not fit int32"):
        Regions([np.array([0])], 2**31)


def test_regions_reject_non_integer_members():
    with pytest.raises(TypeError):
        Regions([np.array([0.0, 1.0])], 3)


def test_regions_are_checked_once_and_read_only():
    regions = Regions([np.array([2, 0]), np.array([], dtype=np.int64)], 3)
    assert [g.tolist() for g in region_groups(regions)] == [[2, 0], []]
    assert regions.members.dtype == np.int32
    with pytest.raises(ValueError, match="read-only"):
        regions.members[0] = 7


def test_pool_rows_must_match_the_regions(rng):
    regions = Regions([np.array([0, 1])], 3)
    for shape in [(2, 4), (4, 4), (3,)]:
        with pytest.raises(ShapeError):
            pool_regions(rng.normal(size=shape), regions)


def _pool_cases(d):
    """Feature rows and groups: empty groups, singletons, a group whose
    rows cancel, a non-finite row, rows in no group (4, 6, 8, 9, 16-19)
    and a partition of rows 22-59."""
    r = np.random.default_rng(d)
    feats = r.normal(size=(60, d))
    feats[1] = -feats[0]
    feats[2] = np.nan
    groups = [[], [5], [0, 1], [], [10, 11, 12, 13], [14], [20, 21], [2, 3], [7], [15]]
    rest = r.permutation(np.arange(22, 60))
    groups += np.split(rest, [5, 6, 20, 31])
    return feats, [np.asarray(g, dtype=np.int64) for g in groups]


@pytest.mark.parametrize(
    "groups,message",
    [
        ([[10, 11, 13], [13, 14], [], [13, 15]],
         "row 13 is listed more than once, in groups [0, 1, 3]"),
        ([[5], [20, 20, 21]], "row 20 is listed more than once, in groups [1, 1]"),
        ([[], [], [1, 2, 1]], "row 1 is listed more than once, in groups [2, 2]"),
        ([[3, 3], [0], [3]], "row 3 is listed more than once, in groups [0, 0, 2]"),
        # the overlapping groups pooling once accepted: rows 12 and 13 are
        # shared and row 20 is repeated; the lowest such row is named
        ([[], [5], [0, 1], [], [10, 11, 12, 13], [12, 13, 14], [20, 20, 21], [2, 3], [7],
          [13, 15]], "row 12 is listed more than once, in groups [4, 5]"),
    ],
    ids=["shared", "repeated", "repeated-after-empty", "repeated-and-shared", "overlapping"],
)
def test_regions_reject_rows_in_two_groups_or_twice_in_one(groups, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        Regions([np.array(g, dtype=np.int64) for g in groups], 60)


@pytest.mark.parametrize("d", [32, 64])
def test_pool_regions_matches_the_group_loop_bit_for_bit(d):
    feats, groups = _pool_cases(d)
    rows, valid, cache = pool(feats, groups)
    want_rows, want_valid, means, norms = loop_pool_regions(feats, groups)
    assert valid.tolist() == want_valid.tolist()
    assert valid[1] and not valid[0] and not valid[2]  # empty and cancelling: invalid
    assert valid[7]  # a NaN mean stays valid, so the step's finite check sees it
    for got, want in ((rows, want_rows), (cache.means, means), (cache.norms, norms)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [32, 64])
def test_pool_backward_matches_the_group_loop_bit_for_bit(d):
    feats, groups = _pool_cases(d)
    feats[2] = 1.0  # finite, so the comparison is of numbers
    _, valid, cache = pool(feats, groups)
    upstream = np.random.default_rng(d + 1).normal(size=(len(groups), d))
    upstream[1] = upstream[4, ::2] = upstream[6] = -0.0  # gradients of -0.0 become 0.0
    _, _, means, norms = loop_pool_regions(feats, groups)
    want = loop_pool_backward(upstream, groups, means, norms, valid, len(feats))
    assert pool_backward(upstream, cache).tobytes() == want.tobytes()
    out = np.full_like(feats, np.nan)
    out[::3] = -0.0
    assert pool_backward(upstream, cache, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_pool_backward_matches_fd(rng):
    for _ in range(10):
        feats = rng.normal(size=(9, 4))
        groups = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5, 6, 7])]
        w = rng.normal(size=(3, 4))

        def f():
            rows, valid, _ = pool(feats, groups)
            return float(np.sum(w * rows))

        rows, valid, cache = pool(feats, groups)
        gx = pool_backward(w * valid[:, None], cache)
        assert max_rel_err(gx, central_diff(f, feats)) < 1e-4


def test_pool_backward_into_out(rng):
    feats = rng.normal(size=(9, 4))
    groups = [np.array([0, 1, 2]), np.array([], dtype=int), np.array([4, 5, 6, 7])]
    _, valid, cache = pool(feats, groups)
    w = rng.normal(size=(3, 4)) * valid[:, None]
    want = pool_backward(w, cache)
    out = rng.normal(size=(9, 4))  # rows 3 and 8 belong to no group
    assert pool_backward(w, cache, out=out) is out
    assert out.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        pool_backward(w, cache, out=np.zeros((9, 3)))


def test_make_bank_joint_validity():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank = make_bank(
        rows,
        np.array([True, False]),
        rows,
        np.array([True, True]),
        np.array([0, 1]),
    )
    assert bank.valid.tolist() == [True, False]
    assert bank.num_valid == 1


# ---------------------------------------------------------------------------
# parameter layout


def test_layers_cannot_be_rebound(rng):
    layer = init_stack([3, 2], rng).layers[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.weight = np.zeros((2, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.bias = np.zeros(2)


def test_pack_params_moves_layers_into_one_buffer(rng):
    stacks = [init_stack([3, 5, 2], rng), init_stack([4, 4], rng)]
    before = [stack_params(s) for s in stacks]
    same = list(stacks)
    buf = pack_params(stacks)
    assert all(a is b for a, b in zip(stacks, same))
    assert buf.tobytes() == np.concatenate(before).tobytes()
    for s, pairs in zip(stacks, layer_views(stacks, buf)):
        for l, (w, b) in zip(s.layers, pairs):
            assert w.base is buf and b.base is buf
            assert l.weight.__array_interface__ == w.__array_interface__
            assert l.bias.__array_interface__ == b.__array_interface__
    buf[0] = 42.0
    assert stacks[0].layers[0].weight[0, 0] == 42.0
    with pytest.raises(ShapeError, match="does not fit"):
        layer_views(stacks, buf[:-1])


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_round_trip(tmp_path, rng):
    stacks = [init_stack([3, 5, 2], rng), init_stack([4, 4], rng)]
    p1 = tmp_path / "a.cscw"
    p2 = tmp_path / "b.cscw"
    write_checkpoint(p1, stacks)
    layers = read_checkpoint(p1)
    assert len(layers) == 3
    fresh = [init_stack([3, 5, 2], rng), init_stack([4, 4], rng)]
    load_layers(fresh, layers)
    for a, b in zip(stacks, fresh):
        assert np.array_equal(stack_params(a), stack_params(b))
    write_checkpoint(p2, fresh)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path, rng):
    path = tmp_path / "x.cscw"
    write_checkpoint(path, [init_stack([2, 2], rng)])
    data = bytearray(path.read_bytes())
    data[0] = ord("Z")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic") as err:
        read_checkpoint(path)
    assert err.value.offset == 0


def test_checkpoint_truncated(tmp_path, rng):
    path = tmp_path / "x.cscw"
    write_checkpoint(path, [init_stack([2, 3], rng)])
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="layer 0"):
        read_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path, rng):
    path = tmp_path / "x.cscw"
    write_checkpoint(path, [init_stack([2, 2], rng)])
    data = bytearray(path.read_bytes())
    data[4] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version") as err:
        read_checkpoint(path)
    assert err.value.offset == 4


def test_load_layers_shape_mismatch(tmp_path, rng):
    path = tmp_path / "x.cscw"
    write_checkpoint(path, [init_stack([2, 2], rng)])
    with pytest.raises(ConfigurationError):
        load_layers([init_stack([3, 2], rng)], read_checkpoint(path))
    with pytest.raises(ConfigurationError):
        load_layers([init_stack([2, 2, 2], rng)], read_checkpoint(path))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_checkpoint_raises_cleanly(tmp_path_factory, data):
    """Any truncation or byte flip of a model's checkpoint either raises
    FormatError, or loads into a model with finite parameters unless
    load_model rejects its layer count or shapes."""
    path = tmp_path_factory.mktemp("fuzz") / "model.cscw"
    save_model(init_model(feat_dim=3, embed_dim=4, seed=0), path)
    blob = bytearray(path.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob = blob[:cut]
    else:
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    path.write_bytes(bytes(blob))
    try:
        model = load_model(path, feat_dim=3, embed_dim=4)
    except FormatError as err:
        assert 0 <= err.offset <= len(blob)
        return
    except ConfigurationError:
        return
    assert np.isfinite(model.params).all()
