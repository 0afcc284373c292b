"""Cross-scene semantic prototypes: per-class means of pooled embeddings.

A prototype is the arithmetic mean of every valid region embedding sharing
one semantic sign, accumulated across all frames handed in (that is what
makes the consistency scene-level rather than frame-level).  Means are
taken over the stored unit-norm rows and are NOT re-normalized here; the
blending stage decides what to do with them.

Prototype construction is non-differentiable by decision: gradients never
flow from losses into the contributing embeddings through a prototype,
only through the blending parameters and the query side of the losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embednet import EmbeddingBank
from .errors import EmptyBankError, ShapeError


@dataclass
class PrototypeBank:
    """Per-class prototypes for the classes present in a batch.

    ``class_ids`` is sorted ascending; row i of every matrix belongs to
    ``class_ids[i]``.  ``counts`` is the number of valid regions behind a
    row, the same on both sides since a valid region has both.  ``pmix``
    stays None until the blending stage fills it.
    """

    class_ids: np.ndarray  # (C,) int64, ascending
    p2d: np.ndarray  # (C, D)
    p3d: np.ndarray  # (C, D)
    counts: np.ndarray  # (C,) int64
    pmix: np.ndarray | None = None

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    def row_of(self, class_id: int) -> int | None:
        pos = int(np.searchsorted(self.class_ids, class_id))
        if pos < len(self.class_ids) and self.class_ids[pos] == class_id:
            return pos
        return None


def build_prototypes(banks: list[EmbeddingBank]) -> PrototypeBank:
    """Mean embeddings per semantic sign over every valid region of ``banks``.

    Regions are accumulated frame by frame, region index ascending, so the
    result is bit-deterministic.  Only valid regions count, and each
    carries both sides, so every present class has both prototypes.
    """
    if not banks:
        raise EmptyBankError("no embedding banks given")
    d = banks[0].f2d.shape[1]
    sums2d: dict[int, np.ndarray] = {}
    sums3d: dict[int, np.ndarray] = {}
    n: dict[int, int] = {}
    for bank in banks:
        if bank.f2d.shape[1] != d:
            raise ShapeError("embedding dimension differs across banks")
        for q in range(len(bank.valid)):
            if not bank.valid[q]:
                continue
            t = int(bank.signs[q])
            if t not in sums2d:
                sums2d[t] = np.zeros(d)
                sums3d[t] = np.zeros(d)
                n[t] = 0
            sums2d[t] += bank.f2d[q]
            sums3d[t] += bank.f3d[q]
            n[t] += 1
    present = sorted(sums2d)
    if not present:
        raise EmptyBankError("no valid region in any bank")
    c = len(present)
    p2d = np.empty((c, d))
    p3d = np.empty((c, d))
    counts = np.empty(c, dtype=np.int64)
    for i, t in enumerate(present):
        p2d[i] = sums2d[t] / n[t]
        p3d[i] = sums3d[t] / n[t]
        counts[i] = n[t]
    return PrototypeBank(
        class_ids=np.array(present, dtype=np.int64),
        p2d=p2d,
        p3d=p3d,
        counts=counts,
    )


def ema_update(
    old: PrototypeBank, fresh: PrototypeBank, momentum: float
) -> PrototypeBank:
    """new = m*old + (1-m)*fresh on shared classes; others carried/inserted."""
    if not (0.0 <= momentum < 1.0):
        raise ShapeError(f"momentum {momentum} outside [0,1)")
    ids = np.union1d(old.class_ids, fresh.class_ids)
    d = old.p2d.shape[1]
    p2d = np.empty((len(ids), d))
    p3d = np.empty((len(ids), d))
    counts = np.empty(len(ids), dtype=np.int64)
    for i, t in enumerate(ids):
        o = old.row_of(int(t))
        f = fresh.row_of(int(t))
        if o is not None and f is not None:
            p2d[i] = momentum * old.p2d[o] + (1.0 - momentum) * fresh.p2d[f]
            p3d[i] = momentum * old.p3d[o] + (1.0 - momentum) * fresh.p3d[f]
            counts[i] = fresh.counts[f]
        elif f is not None:
            p2d[i] = fresh.p2d[f]
            p3d[i] = fresh.p3d[f]
            counts[i] = fresh.counts[f]
        else:
            p2d[i] = old.p2d[o]
            p3d[i] = old.p3d[o]
            counts[i] = old.counts[o]
    return PrototypeBank(
        class_ids=ids.astype(np.int64),
        p2d=p2d,
        p3d=p3d,
        counts=counts,
    )
