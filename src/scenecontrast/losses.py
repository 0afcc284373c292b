"""Contrastive losses with analytic gradients and the step's loss report.

Two terms: a superpixel/superpoint InfoNCE over the batch's paired regions
(summed over rows, cross-frame negatives included), and a prototype term
attracting each superpoint to the mixed prototype of its class (averaged
over rows).  The prototype term is gated on strictly after epoch
``lam``: ``run_step`` decides the gate once and computes the term only
while it is open, so ``total_loss`` reports the gate from whether the
term exists.

Gradients are with respect to the raw bank rows handed in; no internal
re-normalization happens here, which keeps every input independently
perturbable for finite-difference checks.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .embednet import EmbeddingBank
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateBatchError,
    MissingClassError,
)


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


CSV_HEADER = ",".join(["step", "epoch", *(f.name for f in fields(LossReport))])


def csv_row(step: int, epoch: int, report: LossReport) -> str:
    # repr() of a float is lossless, and of an int equals str()
    return ",".join([str(step), str(epoch), *map(repr, astuple(report))])


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
        raise ContractViolationError("softmax rows do not sum to 1")
    return p


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
    if tau_sp <= 0:
        raise ConfigurationError("tau_sp must be positive")
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    if m < 2:
        raise DegenerateBatchError(f"need at least 2 valid regions, have {m}")
    a3 = bank.f3d[vidx]
    a2 = bank.f2d[vidx]
    sims = a3 @ a2.T  # raw cosine similarities
    p = _row_softmax(sims / tau_sp)
    eye = np.eye(m)
    value = float(-np.log(np.clip(np.diag(p), 1e-300, None)).sum())
    dlogits = (p - eye) / tau_sp
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f2d = np.zeros_like(bank.f2d)
    grad_f3d[vidx] = dlogits @ a2
    grad_f2d[vidx] = dlogits.T @ a3
    off = sims + np.where(eye > 0, -np.inf, 0.0)
    return SpResult(
        value=value,
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
    if tau_pro <= 0:
        raise ConfigurationError("tau_pro must be positive")
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    if m == 0:
        raise DegenerateBatchError("no valid region for the prototype loss")
    signs = bank.signs[vidx]
    missing = ~np.isin(signs, class_ids)
    if missing.any():
        t = int(signs[np.argmax(missing)])  # the first missing row's class
        raise MissingClassError(f"class {t} has no prototype", t)
    pos = np.searchsorted(class_ids, signs)
    a3 = bank.f3d[vidx]
    logits = a3 @ pmix.T / tau_pro  # (m, C)
    p = _row_softmax(logits)
    picked = p[np.arange(m), pos]
    value = float(-np.log(np.clip(picked, 1e-300, None)).mean())
    dlogits = p.copy()
    dlogits[np.arange(m), pos] -= 1.0
    dlogits /= m * tau_pro
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f3d[vidx] = dlogits @ pmix
    grad_pmix = dlogits.T @ a3
    return ProResult(value=value, grad_f3d=grad_f3d, grad_pmix=grad_pmix)


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
