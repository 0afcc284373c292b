"""Prototype construction against scalar-loop oracles."""

import numpy as np
import pytest

from fdutil import join_banks, loop_ema, loop_prototypes, row_of
from scenecontrast.embednet import EmbeddingBank
from scenecontrast.errors import ConfigurationError, DegenerateBatchError
from scenecontrast.protobank import PrototypeBank, build_prototypes, ema_update


def unit_rows(rng, q, d):
    m = rng.normal(size=(q, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def bank_of(rng, signs, d=4, valid=None):
    signs = np.asarray(signs, dtype=np.int64)
    q = len(signs)
    if valid is None:
        valid = np.ones(q, dtype=bool)
    return EmbeddingBank(
        f2d=unit_rows(rng, q, d), f3d=unit_rows(rng, q, d), valid=valid, signs=signs
    )


def test_singleton_mean(rng):
    bank = bank_of(rng, [2])
    protos = build_prototypes(bank)
    assert protos.class_ids.tolist() == [2]
    assert np.array_equal(protos.p2d[0], bank.f2d[0])
    assert np.array_equal(protos.p3d[0], bank.f3d[0])
    assert protos.counts[0] == 1


def test_two_point_mean(rng):
    bank = bank_of(rng, [1, 1])
    protos = build_prototypes(bank)
    assert np.allclose(protos.p2d[0], (bank.f2d[0] + bank.f2d[1]) / 2.0, atol=1e-15)
    assert np.allclose(protos.p3d[0], (bank.f3d[0] + bank.f3d[1]) / 2.0, atol=1e-15)
    assert protos.counts[0] == 2


def test_brute_force_group_by_oracle(rng):
    """3 scenes x 4 classes vs an independent scalar accumulation."""
    banks = [bank_of(rng, rng.integers(0, 4, size=7), d=5) for _ in range(3)]
    protos = build_prototypes(join_banks(banks))
    sums2 = {}
    sums3 = {}
    counts = {}
    for b in banks:
        for q in range(7):
            t = int(b.signs[q])
            if t not in sums2:
                sums2[t] = np.zeros(5)
                sums3[t] = np.zeros(5)
                counts[t] = 0
            for d in range(5):
                sums2[t][d] += b.f2d[q, d]
                sums3[t][d] += b.f3d[q, d]
            counts[t] += 1
    assert protos.class_ids.tolist() == sorted(counts)
    for i, t in enumerate(protos.class_ids):
        t = int(t)
        assert np.max(np.abs(protos.p2d[i] - sums2[t] / counts[t])) < 1e-12
        assert np.max(np.abs(protos.p3d[i] - sums3[t] / counts[t])) < 1e-12
        assert protos.counts[i] == counts[t]


def same_bytes(a, b):
    for name in ("class_ids", "p2d", "p3d", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("seed", range(6))
def test_group_by_matches_the_region_loop_bit_for_bit(seed):
    """Random multi-bank inputs with invalid rows, against the dict loop."""
    rng = np.random.default_rng(seed)
    banks = [
        bank_of(rng, rng.integers(0, 7, size=q), d=5, valid=rng.random(q) < 0.7)
        for q in rng.integers(1, 12, size=int(rng.integers(1, 5)))
    ]
    banks[0].valid[0] = True  # at least one valid row
    same_bytes(build_prototypes(join_banks(banks)), loop_prototypes(banks))


def test_cross_scene_aggregation(rng):
    """Same class in two different scenes ends up in one prototype row."""
    scene_a = bank_of(rng, [3])
    scene_b = bank_of(rng, [3])
    protos = build_prototypes(join_banks([scene_a, scene_b]))
    assert protos.num_classes == 1
    assert protos.counts[0] == 2  # both scenes' members counted together
    expect = (scene_a.f2d[0] + scene_b.f2d[0]) / 2.0
    assert np.allclose(protos.p2d[0], expect, atol=1e-15)


def test_invalid_rows_skipped(rng):
    bank = bank_of(rng, [0, 1], valid=np.array([True, False]))
    protos = build_prototypes(bank)
    assert protos.class_ids.tolist() == [0]


def test_empty_inputs_raise(rng):
    empty = bank_of(rng, [0, 0], valid=np.zeros(2, dtype=bool))
    with pytest.raises(DegenerateBatchError):
        build_prototypes(empty)


def test_deterministic_and_order_stable(rng):
    banks = [bank_of(rng, rng.integers(0, 3, size=5)) for _ in range(4)]
    a = build_prototypes(join_banks(banks))
    b = build_prototypes(join_banks(banks))
    assert a.p2d.tobytes() == b.p2d.tobytes()  # same order: bit-identical
    c = build_prototypes(join_banks(banks[::-1]))
    assert np.allclose(a.p2d, c.p2d, atol=1e-12)  # reordered: equal values
    assert np.array_equal(a.class_ids, c.class_ids)


def test_convexity_norm_bound(rng):
    banks = [bank_of(rng, rng.integers(0, 4, size=9)) for _ in range(3)]
    protos = build_prototypes(join_banks(banks))
    # members are unit vectors, so any mean stays inside the unit ball
    assert np.all(np.linalg.norm(protos.p2d, axis=1) <= 1.0 + 1e-12)
    assert np.all(np.linalg.norm(protos.p3d, axis=1) <= 1.0 + 1e-12)


def test_prototypes_not_renormalized(rng):
    bank = bank_of(rng, [1, 1])
    protos = build_prototypes(bank)
    # mean of two distinct unit vectors is strictly inside the sphere
    assert np.linalg.norm(protos.p2d[0]) < 1.0 - 1e-6


# ---------------------------------------------------------------------------
# ema


def two_banks(rng):
    old = build_prototypes(bank_of(rng, [0, 1]))
    fresh = build_prototypes(bank_of(rng, [1, 2]))
    return old, fresh


def test_ema_momentum_zero_is_fresh(rng):
    old, fresh = two_banks(rng)
    out = ema_update(old, fresh, 0.0)
    row = row_of(out, 1)
    assert np.array_equal(out.p2d[row], fresh.p2d[row_of(fresh, 1)])


@pytest.mark.parametrize("momentum", [-0.1, 1.0, float("nan")])
def test_ema_rejects_momentum_outside_range_as_config_error(rng, momentum):
    # a momentum is a config value, like TrainConfig's ema_momentum
    old, fresh = two_banks(rng)
    with pytest.raises(ConfigurationError, match=rf"^ema_momentum must be .*, got {momentum}$"):
        ema_update(old, fresh, momentum)


def test_ema_fixed_point(rng):
    old = build_prototypes(bank_of(rng, [0, 1]))
    out = ema_update(old, old, 0.9)
    assert np.allclose(out.p2d, old.p2d, atol=1e-15)
    assert np.allclose(out.p3d, old.p3d, atol=1e-15)


def test_ema_midpoint():
    def mk(vec):
        v = np.asarray(vec, dtype=np.float64)[None, :]
        return PrototypeBank(
            class_ids=np.array([0]),
            p2d=v.copy(),
            p3d=v.copy(),
            counts=np.array([1]),
        )

    out = ema_update(mk([1.0, 0.0]), mk([0.0, 1.0]), 0.5)
    assert np.allclose(out.p2d[0], [0.5, 0.5])


def test_ema_class_union(rng):
    old, fresh = two_banks(rng)
    out = ema_update(old, fresh, 0.5)
    assert out.class_ids.tolist() == [0, 1, 2]
    # class 0 only in old: carried; class 2 only in fresh: inserted
    assert np.array_equal(out.p2d[row_of(out, 0)], old.p2d[row_of(old, 0)])
    assert np.array_equal(out.p2d[row_of(out, 2)], fresh.p2d[row_of(fresh, 2)])


@pytest.mark.parametrize(
    "old_ids, fresh_ids",
    [
        ([0, 2, 5], [2, 3, 5, 6]),  # overlapping
        ([0, 1], [4, 7]),  # disjoint
        ([1, 3, 4, 8], [3, 8]),  # fresh a subset of old
        ([3], [1, 3, 9]),  # old a subset of fresh
    ],
)
@pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
def test_ema_matches_the_class_loop_bit_for_bit(old_ids, fresh_ids, momentum):
    rng = np.random.default_rng(len(old_ids) * 10 + len(fresh_ids))
    old = build_prototypes(bank_of(rng, np.repeat(old_ids, 2), d=5))
    fresh = build_prototypes(bank_of(rng, np.repeat(fresh_ids, 3), d=5))
    same_bytes(ema_update(old, fresh, momentum), loop_ema(old, fresh, momentum))


def test_counts_per_class_row(rng):
    protos = build_prototypes(bank_of(rng, [0, 2]))
    assert protos.class_ids.tolist() == [0, 2]
    assert protos.counts.tolist() == [1, 1]
    assert protos.p2d.shape == protos.p3d.shape == (2, 4)
