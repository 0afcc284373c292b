"""Loss closed forms, finite differences, and the epoch gate.

Expected values are computed in-test from hand derivations (uniform
softmax, identity similarity matrices), never by calling the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdutil import central_diff, max_rel_err
from scenecontrast.embednet import EmbeddingBank
from scenecontrast.errors import (
    ConfigurationError,
    DegenerateBatchError,
    MissingClassError,
)
from scenecontrast.losses import (
    CSV_HEADER,
    LossReport,
    csv_row,
    gate_open,
    loss_pro,
    loss_sp,
    total_loss,
)


def unit_rows(rng, q, d):
    m = rng.normal(size=(q, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_bank(rng, q=6, d=5, num_classes=4, valid=None):
    if valid is None:
        valid = np.ones(q, dtype=bool)
    return EmbeddingBank(
        f2d=unit_rows(rng, q, d),
        f3d=unit_rows(rng, q, d),
        valid=valid,
        signs=rng.integers(0, num_classes, size=q),
    )


def identity_bank(q):
    eye = np.eye(q)
    return EmbeddingBank(
        f2d=eye.copy(),
        f3d=eye.copy(),
        valid=np.ones(q, dtype=bool),
        signs=np.arange(q),
    )


def proto_bank_from(pmix):
    """Class ids 0..C-1 and a float64 copy of their mixed prototypes."""
    pmix = np.array(pmix, dtype=np.float64)
    return np.arange(pmix.shape[0]), pmix


# ---------------------------------------------------------------------------
# closed forms


def test_sp_identical_pair_is_2ln2():
    v = np.array([[1.0, 0.0]])
    bank = EmbeddingBank(
        f2d=np.repeat(v, 2, axis=0),
        f3d=np.repeat(v, 2, axis=0),
        valid=np.ones(2, dtype=bool),
        signs=np.zeros(2, dtype=np.int64),
    )
    res = loss_sp(bank, 0.07)
    assert abs(res.value - 2.0 * np.log(2.0)) < 1e-9


def test_sp_uniform_rows_q_ln_q():
    q = 5
    v = np.zeros((q, 3))
    v[:, 0] = 1.0
    bank = EmbeddingBank(
        f2d=v.copy(), f3d=v.copy(),
        valid=np.ones(q, dtype=bool), signs=np.zeros(q, dtype=np.int64),
    )
    res = loss_sp(bank, 0.3)
    assert abs(res.value - q * np.log(q)) < 1e-9


def test_sp_orthonormal_positives():
    q, tau = 4, 0.07
    res = loss_sp(identity_bank(q), tau)
    per_row = np.log(1.0 + (q - 1) * np.exp(-1.0 / tau))
    assert abs(res.value - q * per_row) < 1e-9
    assert abs(res.mean_pos_sim - 1.0) < 1e-12
    assert abs(res.mean_negmax_sim - 0.0) < 1e-12


def test_sp_temperature_monotone_on_separated_pairs():
    bank = identity_bank(4)
    values = [loss_sp(bank, t).value for t in (0.05, 0.2, 1.0)]
    assert values[0] < values[1] < values[2]


def test_pro_uniform_is_ln_c():
    rng = np.random.default_rng(0)
    c = 6
    same = np.repeat(unit_rows(rng, 1, 4), c, axis=0)
    protos = proto_bank_from(same)
    bank = random_bank(rng, q=5, d=4, num_classes=c)
    res = loss_pro(bank, *protos, 1.0)
    assert abs(res.value - np.log(c)) < 1e-9


def test_pro_orthogonal_fixture():
    c = 8
    bank = identity_bank(c)
    protos = proto_bank_from(np.eye(c))
    res = loss_pro(bank, *protos, 1.0)
    want = np.log(1.0 + (c - 1) * np.exp(-1.0))
    assert abs(res.value - want) < 1e-9
    assert abs(want - 1.2740088) < 1e-6


# ---------------------------------------------------------------------------
# gradients


def test_sp_fd_gradients(rng):
    for _ in range(5):
        bank = random_bank(rng, q=5, d=4)
        res = loss_sp(bank, 0.2)

        def f3():
            return loss_sp(bank, 0.2).value

        assert max_rel_err(res.grad_f3d, central_diff(f3, bank.f3d)) < 1e-4
        assert max_rel_err(res.grad_f2d, central_diff(f3, bank.f2d)) < 1e-4


def test_sp_invalid_rows_get_zero_grad(rng):
    valid = np.array([True, False, True, True])
    bank = random_bank(rng, q=4, valid=valid)
    res = loss_sp(bank, 0.1)
    assert not res.grad_f3d[1].any()
    assert not res.grad_f2d[1].any()


def test_pro_fd_gradients(rng):
    for _ in range(5):
        bank = random_bank(rng, q=5, d=4, num_classes=3)
        class_ids, pmix = proto_bank_from(unit_rows(rng, 3, 4))
        res = loss_pro(bank, class_ids, pmix, 0.7)

        def f():
            return loss_pro(bank, class_ids, pmix, 0.7).value

        assert max_rel_err(res.grad_f3d, central_diff(f, bank.f3d)) < 1e-4
        assert max_rel_err(res.grad_pmix, central_diff(f, pmix)) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    bank = random_bank(rng, q=4, d=3, num_classes=3)
    protos = proto_bank_from(unit_rows(rng, 3, 3))
    assert loss_sp(bank, 0.07).value >= 0.0
    assert loss_pro(bank, *protos, 1.0).value >= 0.0


# ---------------------------------------------------------------------------
# degenerate and contract errors


def test_sp_needs_two_valid(rng):
    bank = random_bank(rng, q=3, valid=np.array([True, False, False]))
    with pytest.raises(DegenerateBatchError):
        loss_sp(bank, 0.07)


def test_pro_needs_one_valid(rng):
    bank = random_bank(rng, q=2, valid=np.zeros(2, dtype=bool))
    with pytest.raises(DegenerateBatchError):
        loss_pro(bank, *proto_bank_from(np.eye(3)), 1.0)


def test_pro_missing_class_named(rng):
    bank = random_bank(rng, q=3, num_classes=3)
    bank.signs[:] = 9
    with pytest.raises(MissingClassError) as err:
        loss_pro(bank, *proto_bank_from(np.eye(3)), 1.0)
    assert err.value.class_id == 9
    assert "9" in str(err.value)


def test_pro_names_the_first_missing_row_class(rng):
    """The missing class is in neither the first valid row nor the first row."""
    bank = random_bank(rng, q=5, num_classes=3)
    bank.valid[0] = False
    bank.signs[:] = [8, 1, 2, 7, 6]  # row 0 is invalid, so 7 is the first miss
    with pytest.raises(MissingClassError) as err:
        loss_pro(bank, *proto_bank_from(np.eye(3)), 1.0)
    assert err.value.class_id == 7
    assert "class 7 " in str(err.value)


def test_pro_with_an_empty_prototype_table(rng):
    bank = random_bank(rng, q=3, num_classes=3)
    bank.valid[0] = False
    bank.signs[:] = [5, 4, 2]
    with pytest.raises(MissingClassError) as err:
        loss_pro(bank, *proto_bank_from(np.empty((0, 5))), 1.0)
    assert err.value.class_id == 4
    assert "class 4 " in str(err.value)


def test_bad_temperatures(rng):
    bank = random_bank(rng)
    with pytest.raises(ConfigurationError):
        loss_sp(bank, 0.0)
    with pytest.raises(ConfigurationError):
        loss_pro(bank, *proto_bank_from(np.eye(4)), -1.0)


# ---------------------------------------------------------------------------
# gate and total


def test_gate_strictly_after_lam():
    assert [gate_open(e, 5) for e in (1, 4, 5, 6, 7)] == [
        False, False, False, True, True,
    ]
    assert gate_open(1, 0) is True


def test_total_closed_gate(rng):
    bank = random_bank(rng)
    sp = loss_sp(bank, 0.07)
    report = total_loss(sp, None)
    assert report.gate == 0
    assert report.loss_pro == 0.0
    assert report.total == sp.value


def test_total_open_gate_sums(rng):
    bank = random_bank(rng, num_classes=3)
    protos = proto_bank_from(unit_rows(rng, 3, 5))
    sp = loss_sp(bank, 0.07)
    pro = loss_pro(bank, *protos, 1.0)
    report = total_loss(sp, pro)
    assert report.gate == 1
    assert abs(report.total - (sp.value + pro.value)) < 1e-12


def test_csv_row_format():
    report = LossReport(
        loss_sp=1.5, loss_pro=0.0, total=1.5, gate=0,
        mean_pos_sim=0.25, mean_negmax_sim=-0.125,
    )
    assert csv_row(3, 2, report) == "3,2,0,1.5,0.0,1.5,0.25,-0.125"
    assert CSV_HEADER == (
        "step,epoch,gate,loss_sp,loss_pro,total,mean_pos_sim,mean_negmax_sim"
    )
    assert len(CSV_HEADER.split(",")) == len(csv_row(3, 2, report).split(","))


def test_csv_row_roundtrips_floats(rng):
    bank = random_bank(rng)
    sp = loss_sp(bank, 0.07)
    report = total_loss(sp, None)
    fields = csv_row(0, 1, report).split(",")
    assert float(fields[3]) == report.loss_sp  # repr() is lossless
