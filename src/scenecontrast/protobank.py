"""Cross-scene semantic prototypes: per-class means of pooled embeddings.

A prototype is the arithmetic mean of every valid region embedding sharing
one semantic sign.  The trainer hands in the step's one bank, which holds
the regions of all the step's frames and so of several scenes (that is
what makes the consistency scene-level rather than frame-level).  Means
are taken over the stored unit-norm rows and are NOT re-normalized here;
the step turns them into the mixed prototypes that the prototype loss
scores, by blending or by normalizing the 3D means.  ``class_ids``
ascend, so a class's row is found with ``np.searchsorted``, here and in
the prototype loss.

Prototype construction is non-differentiable by decision: gradients never
flow from losses into the contributing embeddings through a prototype,
only through the blending parameters and the query side of the losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embednet import EmbeddingBank
from .errors import EmptyBankError, ShapeError


@dataclass(frozen=True)
class PrototypeBank:
    """Per-class prototypes for the classes present in a batch.

    ``class_ids`` is sorted ascending; row i of every matrix belongs to
    ``class_ids[i]``.  ``counts`` is the number of valid regions behind a
    row, the same on both sides since a valid region has both.  The step
    derives the mixed prototypes from ``p2d`` and ``p3d`` and hands them
    to the loss.
    """

    class_ids: np.ndarray  # (C,) int64, ascending
    p2d: np.ndarray  # (C, D)
    p3d: np.ndarray  # (C, D)
    counts: np.ndarray  # (C,) int64

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)


def build_prototypes(bank: EmbeddingBank) -> PrototypeBank:
    """Mean embeddings per semantic sign over the valid regions of ``bank``.

    The rows are grouped by sign with one ``np.unique`` and summed with
    ``np.add.at``, which adds one row at a time in region order, so the
    result is bit-deterministic.  Only valid regions count, and each
    carries both sides, so every present class has both prototypes.
    Raises EmptyBankError when no region is valid.
    """
    valid = bank.valid
    if not valid.any():
        raise EmptyBankError("no valid region in the bank")
    class_ids, inverse, counts = np.unique(
        bank.signs[valid], return_inverse=True, return_counts=True
    )

    def means(rows: np.ndarray) -> np.ndarray:
        sums = np.zeros((len(class_ids), rows.shape[1]))
        np.add.at(sums, inverse, rows[valid])
        return sums / counts[:, None]

    return PrototypeBank(
        class_ids=class_ids.astype(np.int64),
        p2d=means(bank.f2d),
        p3d=means(bank.f3d),
        counts=counts.astype(np.int64),
    )


def ema_update(
    old: PrototypeBank, fresh: PrototypeBank, momentum: float
) -> PrototypeBank:
    """new = m*old + (1-m)*fresh on shared classes; others carried/inserted."""
    if not (0.0 <= momentum < 1.0):
        raise ShapeError(f"momentum {momentum} outside [0,1)")
    ids = np.union1d(old.class_ids, fresh.class_ids)
    # rows of the union table that each bank's rows land on
    at_old = np.searchsorted(ids, old.class_ids)
    at_fresh = np.searchsorted(ids, fresh.class_ids)
    _, so, sf = np.intersect1d(
        old.class_ids, fresh.class_ids, assume_unique=True, return_indices=True
    )

    def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((len(ids),) + a.shape[1:], dtype=a.dtype)
        out[at_old] = a
        out[at_fresh] = b
        return out

    p2d = union(old.p2d, fresh.p2d)
    p3d = union(old.p3d, fresh.p3d)
    shared = at_old[so]
    p2d[shared] = momentum * old.p2d[so] + (1.0 - momentum) * fresh.p2d[sf]
    p3d[shared] = momentum * old.p3d[so] + (1.0 - momentum) * fresh.p3d[sf]
    return PrototypeBank(
        class_ids=ids.astype(np.int64),
        p2d=p2d,
        p3d=p3d,
        counts=union(old.counts, fresh.counts).astype(np.int64),
    )
