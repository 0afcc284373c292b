"""Contrastive losses with analytic gradients and the epoch-gated total.

Two terms: a superpixel/superpoint InfoNCE over the batch's paired regions
(summed over rows, cross-frame negatives included), and a prototype term
attracting each superpoint to the mixed prototype of its class (averaged
over rows).  The total gates the prototype term strictly after epoch
``lam``; the trainer must not even compute it while gated off, and
``total_loss`` enforces that.

Gradients are with respect to the raw bank rows handed in; no internal
re-normalization happens here, which keeps every input independently
perturbable for finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embednet import EmbeddingBank
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateBatchError,
    MissingClassError,
)
from .protobank import PrototypeBank


@dataclass
class LossReport:
    loss_sp: float
    loss_pro: float  # 0.0 while gated off
    total: float
    gate: int  # 0 or 1
    mean_pos_sim: float
    mean_negmax_sim: float


CSV_HEADER = "step,epoch,gate,loss_sp,loss_pro,total,mean_pos_sim,mean_negmax_sim"


def csv_row(step: int, epoch: int, report: LossReport) -> str:
    return ",".join(
        [
            str(step),
            str(epoch),
            str(report.gate),
            repr(report.loss_sp),
            repr(report.loss_pro),
            repr(report.total),
            repr(report.mean_pos_sim),
            repr(report.mean_negmax_sim),
        ]
    )


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
    bank: EmbeddingBank, protos: PrototypeBank, tau_pro: float
) -> ProResult:
    """Superpoint-to-prototype InfoNCE, averaged over the valid rows.

    The positive is the mixed prototype whose class matches the region's
    semantic sign; the denominator runs over every class present in the
    prototype bank.
    """
    if tau_pro <= 0:
        raise ConfigurationError("tau_pro must be positive")
    if protos.pmix is None:
        raise ContractViolationError("prototype bank has no mixed prototypes yet")
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    if m == 0:
        raise DegenerateBatchError("no valid region for the prototype loss")
    signs = bank.signs[vidx]
    missing = ~np.isin(signs, protos.class_ids)
    if missing.any():
        t = int(signs[np.argmax(missing)])  # the first missing row's class
        raise MissingClassError(f"class {t} has no prototype", t)
    pos = np.searchsorted(protos.class_ids, signs)  # class_ids ascend
    a3 = bank.f3d[vidx]
    logits = a3 @ protos.pmix.T / tau_pro  # (m, C)
    p = _row_softmax(logits)
    picked = p[np.arange(m), pos]
    value = float(-np.log(np.clip(picked, 1e-300, None)).mean())
    dlogits = p.copy()
    dlogits[np.arange(m), pos] -= 1.0
    dlogits /= m * tau_pro
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f3d[vidx] = dlogits @ protos.pmix
    grad_pmix = dlogits.T @ a3
    return ProResult(value=value, grad_f3d=grad_f3d, grad_pmix=grad_pmix)


@dataclass
class TotalResult:
    report: LossReport
    grad_f3d: np.ndarray
    grad_f2d: np.ndarray
    grad_pmix: np.ndarray | None  # None while gated off


def gate_open(epoch: int, lam: int) -> bool:
    """The prototype term is active strictly after epoch ``lam``."""
    return epoch > lam


def total_loss(
    epoch: int,
    sp: SpResult,
    pro: ProResult | None,
    lam: int,
) -> TotalResult:
    """Combine the two terms under the epoch gate.

    The caller must pass ``pro=None`` exactly when the gate is closed:
    supplying it anyway means it was computed for nothing, and omitting it
    with the gate open would silently drop the term; both are bugs.  With
    the gate closed the report's ``loss_pro`` is 0.0, ``total`` is the
    paired term alone and there is no prototype gradient.
    """
    if epoch < 1:
        raise ConfigurationError("epochs are numbered from 1")
    gate = gate_open(epoch, lam)
    if gate and pro is None:
        raise ContractViolationError("gate open but no prototype loss supplied")
    if not gate and pro is not None:
        raise ContractViolationError("gate closed but a prototype loss was computed")
    report = LossReport(
        loss_sp=sp.value,
        loss_pro=0.0 if pro is None else pro.value,
        total=sp.value if pro is None else sp.value + pro.value,
        gate=int(gate),
        mean_pos_sim=sp.mean_pos_sim,
        mean_negmax_sim=sp.mean_negmax_sim,
    )
    return TotalResult(
        report=report,
        grad_f3d=sp.grad_f3d if pro is None else sp.grad_f3d + pro.grad_f3d,
        grad_f2d=sp.grad_f2d,
        grad_pmix=None if pro is None else pro.grad_pmix,
    )
