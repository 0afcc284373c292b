"""Contrastive losses with analytic gradients and the step's loss report.

Two terms: a superpixel/superpoint InfoNCE over the batch's paired regions
(summed over rows, cross-frame negatives included), and a prototype term
attracting each superpoint to the mixed prototype of its class (averaged
over rows), both one ``softmax_xent``, as is the trainer's linear probe.
The prototype term is gated on strictly after epoch ``lam``: ``run_step``
decides the gate once and computes the term only while it is open, so
``total_loss`` reports the gate from whether the term exists.

Gradients are with respect to the raw bank rows handed in; no internal
re-normalization happens here, which keeps every input independently
perturbable for finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bounds import Bound, check
from .embednet import EmbeddingBank
from .errors import ContractViolationError, DegenerateBatchError

# a softmax temperature; TRAIN_BOUNDS' tau_sp and tau_pro are this row
TEMPERATURE = Bound(float, 0.0, ends="()")


@dataclass
class LossReport:
    """One step's metrics row; the fields are the CSV columns after
    ``step`` and ``epoch``, in order."""

    gate: int  # 0 or 1
    loss_sp: float
    loss_pro: float  # 0.0 while gated off
    total: float
    mean_pos_sim: float
    mean_negmax_sim: float

    def values(self) -> tuple:
        """The fields in column order, not copied (``astuple`` deep-copies)."""
        return tuple(getattr(self, name) for name in _COLUMNS)


_COLUMNS = [f.name for f in fields(LossReport)]
CSV_HEADER = ",".join(["step", "epoch", *_COLUMNS])


def csv_row(step: int, epoch: int, report: LossReport) -> str:
    # repr() of a float is lossless, and of an int equals str()
    return ",".join([str(step), str(epoch), *map(repr, report.values())])


def softmax_xent(logits: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's log-probability of its positive column ``pos``, and the
    gradient of -sum(logp) over ``logits``, softmax minus one-hot, written
    over the softmax.  Callers negate after reducing: a zero loss is -0.0."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(p))
    logp = np.log(np.clip(p[rows, pos], 1e-300, None))
    p[rows, pos] -= 1.0  # off the positive, p - 0.0 is p
    return logp, p


@dataclass
class SpResult:
    value: float
    grad_f3d: np.ndarray  # (Q, D), zero on invalid rows
    grad_f2d: np.ndarray  # (Q, D)
    mean_pos_sim: float
    mean_negmax_sim: float


def loss_sp(bank: EmbeddingBank, tau_sp: float) -> SpResult:
    """Paired-region InfoNCE, summed over the valid rows of the batch.

    Row i's positive is its own 2D embedding; every other valid 2D row in
    the batch is a negative.
    """
    check({"tau_sp": TEMPERATURE}, {"tau_sp": tau_sp})
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    if m < 2:
        raise DegenerateBatchError(f"need at least 2 valid regions, have {m}")
    a3 = bank.f3d[vidx]
    a2 = bank.f2d[vidx]
    sims = a3 @ a2.T  # raw cosine similarities
    logp, dlogits = softmax_xent(sims / tau_sp, np.arange(m))
    dlogits /= tau_sp
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f2d = np.zeros_like(bank.f2d)
    grad_f3d[vidx] = dlogits @ a2
    grad_f2d[vidx] = dlogits.T @ a3
    off = sims + np.where(np.eye(m) > 0, -np.inf, 0.0)  # fill_diagonal keeps -0.0
    return SpResult(
        value=float(-logp.sum()),
        grad_f3d=grad_f3d,
        grad_f2d=grad_f2d,
        mean_pos_sim=float(np.diag(sims).mean()),
        mean_negmax_sim=float(off.max(axis=1).mean()),
    )


@dataclass
class ProResult:
    value: float
    grad_f3d: np.ndarray  # (Q, D)
    grad_pmix: np.ndarray  # (C, D)


def loss_pro(
    bank: EmbeddingBank, class_ids: np.ndarray, pmix: np.ndarray, tau_pro: float
) -> ProResult:
    """Superpoint-to-prototype InfoNCE, averaged over the valid rows.

    ``pmix`` row i is the mixed prototype of ``class_ids[i]``, which ascend.
    The positive is the row whose class matches the region's semantic sign;
    the denominator runs over every row of the table.
    """
    check({"tau_pro": TEMPERATURE}, {"tau_pro": tau_pro})
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    if m == 0:
        raise DegenerateBatchError("no valid region for the prototype loss")
    signs = bank.signs[vidx]
    missing = ~np.isin(signs, class_ids)
    if missing.any():
        t = int(signs[np.argmax(missing)])  # the first missing row's class
        raise ContractViolationError(f"class {t} has no prototype")
    pos = np.searchsorted(class_ids, signs)
    a3 = bank.f3d[vidx]
    logp, dlogits = softmax_xent(a3 @ pmix.T / tau_pro, pos)  # (m, C)
    dlogits /= m * tau_pro  # one division: / m / tau_pro rounds differently
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f3d[vidx] = dlogits @ pmix
    grad_pmix = dlogits.T @ a3
    return ProResult(value=float(-logp.mean()), grad_f3d=grad_f3d, grad_pmix=grad_pmix)


def gate_open(epoch: int, lam: int) -> bool:
    """The prototype term is active strictly after epoch ``lam``."""
    return epoch > lam


def total_loss(sp: SpResult, pro: ProResult | None) -> LossReport:
    """Report the step's losses; ``pro`` is None exactly while the gate is
    closed, and then ``loss_pro`` is 0.0 and ``total`` the paired term alone.
    """
    return LossReport(
        gate=int(pro is not None),
        loss_sp=sp.value,
        loss_pro=0.0 if pro is None else pro.value,
        total=sp.value if pro is None else sp.value + pro.value,
        mean_pos_sim=sp.mean_pos_sim,
        mean_negmax_sim=sp.mean_negmax_sim,
    )
