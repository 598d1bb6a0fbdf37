"""Kernels, Gram positivity, and the induced inner-product structure."""
import math

import numpy as np
import pytest

import etale
from etale import (ExpLengthKernel, GroupoidElement, HaagerupKernel,
                   KernelDomainError, KernelPositivityError, ModelError,
                   PreconditionError, TableKernel, gns_build,
                   gns_isometry_defect, gns_rep_matrix, gram_matrix,
                   haagerup_witness_check, matrix_coeff_recovery,
                   pointwise_product_check, psd_check)


def test_kernel_values(f2):
    g = GroupoidElement(0, (1, 2, 1))
    assert ExpLengthKernel(0.5).evaluate(f2, g) == 0.125
    assert HaagerupKernel(2.0).evaluate(f2, g) == pytest.approx(math.exp(-1.5))
    assert ExpLengthKernel(1.0).evaluate(f2, g) == 1.0


def test_kernel_parameter_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ModelError):
            ExpLengthKernel(bad)
    with pytest.raises(ModelError):
        HaagerupKernel(0.0)


def test_table_kernel_hermitian_completion(f2):
    a = GroupoidElement(0, (1,))
    kern = TableKernel(f2, {f2.unit_element(0): 1.0, a: 1j})
    assert kern.evaluate(f2, f2.inverse(a)) == -1j
    assert kern.radius == 1
    assert kern.evaluate(f2, GroupoidElement(0, (2,))) == 0  # inside radius, absent
    with pytest.raises(KernelDomainError):
        kern.evaluate(f2, GroupoidElement(0, (1, 2)))


def test_table_kernel_rejects_bad_tables(f2):
    a = GroupoidElement(0, (1,))
    with pytest.raises(ModelError):
        TableKernel(f2, {a: 1j, f2.inverse(a): 1j})  # should be -1j
    with pytest.raises(ModelError):
        TableKernel(f2, {a: 1.0}, radius=0)
    for bad in (float("inf"), complex(0, float("nan"))):
        with pytest.raises(ModelError):
            TableKernel(f2, {a: bad})


def test_gram_matrix_ball_one(f2):
    a, a2 = 0.5, 0.25
    G = gram_matrix(f2, ExpLengthKernel(0.5), f2.ball(0, 1))
    expected = np.full((5, 5), a2, dtype=complex)
    np.fill_diagonal(expected, 1.0)
    expected[0, 1:] = a
    expected[1:, 0] = a
    assert np.array_equal(G, expected)


def test_gram_matrix_needs_common_fiber(f2_32):
    pts = [GroupoidElement(0, ()), GroupoidElement(1, ())]
    with pytest.raises(PreconditionError):
        gram_matrix(f2_32, ExpLengthKernel(0.5), pts)


def test_psd_exp_kernels_on_free_ball(f2):
    ball = f2.ball(0, 2)
    for alpha in (0.3, 0.5, 0.7, 1.0):
        res = psd_check(f2, ExpLengthKernel(alpha), ball)
        assert res.passed and res.size == 17
        assert res.min_eig >= -1e-9
    assert psd_check(f2, HaagerupKernel(3.0), ball).passed


def test_psd_fails_on_indefinite_table(z):
    kern = TableKernel(z, {z.unit_element(0): 1.0, GroupoidElement(0, (1,)): 2.0},
                       radius=2)
    pair = [z.unit_element(0), GroupoidElement(0, (1,))]
    res = psd_check(z, kern, pair)
    assert not res.passed
    assert res.min_eig == pytest.approx(-1.0)  # [[1,2],[2,1]] has eigenvalues -1, 3
    assert not psd_check(z, kern, z.ball(0, 1)).passed
    with pytest.raises(KernelPositivityError):
        gns_build(z, kern, 0, 1)


def test_gns_dimensions_and_nullspace(f2):
    gns = gns_build(f2, ExpLengthKernel(0.5), 0, 1)
    assert gns.dim == 5 and gns.null_dim == 0 and gns.quotient_dim == 5
    # alpha = 1 collapses everything onto one ray
    flat = gns_build(f2, ExpLengthKernel(1.0), 0, 1)
    assert flat.quotient_dim == 1 and flat.null_dim == 4


def test_gns_inner_product(f2):
    gns = gns_build(f2, ExpLengthKernel(0.5), 0, 1)
    e0 = np.eye(5)[0]
    e1 = np.eye(5)[1]
    assert gns.inner(e0, e0) == 1.0
    assert gns.inner(e1, e0) == 0.5  # <delta_a, delta_e> = F(a)
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        q = gns.inner(v, v)
        assert abs(q.imag) < 1e-12 and q.real > -1e-12


def test_rep_matrix_is_permutation_like(z2_swap, f2):
    x = GroupoidElement(0, 1)
    M = gns_rep_matrix(z2_swap, x, 1)
    assert np.array_equal(M, np.array([[0.0, 1.0], [1.0, 0.0]]))
    M2 = gns_rep_matrix(f2, GroupoidElement(0, (1,)), 1)
    assert M2.shape == (17, 5)
    assert np.array_equal(np.sort(M2.ravel()), np.r_[np.zeros(80), np.ones(5)])
    assert np.all(M2.sum(axis=0) == 1)


def test_translation_is_exact_isometry(f2, f2_32, z2_swap):
    cases = [
        (f2, ExpLengthKernel(0.5), GroupoidElement(0, (1,)), 1),
        (f2, ExpLengthKernel(0.7), GroupoidElement(0, (1, 2)), 2),
        (f2, HaagerupKernel(3.0), GroupoidElement(0, (-2,)), 1),
        (f2_32, ExpLengthKernel(0.5), GroupoidElement(4, (1, 1)), 1),
        (z2_swap, HaagerupKernel(2.0), GroupoidElement(0, 1), 1),
    ]
    for model, kern, x, k in cases:
        assert gns_isometry_defect(model, kern, x, k) == 0.0


def test_matrix_coeff_recovery(f2, f2_32):
    for model in (f2, f2_32):
        kern = ExpLengthKernel(0.5)
        for word in ((), (1,), (1, 2), (-2, 1)):
            x = GroupoidElement(0, word)
            got = matrix_coeff_recovery(model, kern, x, 2)
            assert got == kern.evaluate(model, x)
    with pytest.raises(PreconditionError):
        matrix_coeff_recovery(f2, ExpLengthKernel(0.5), GroupoidElement(0, (1, 1, 1)), 2)


def test_haagerup_witness_free(f2):
    rep = haagerup_witness_check(f2, [2, 3, 4], [1, 2, 4], [0.1, 0.01])
    assert rep.passed
    assert all(r["ok"] for r in rep.unit_rows + rep.deviation_rows
               + rep.monotone_rows + rep.vanishing_rows)
    radii = {(r["n"], r["eps"]): r["radius"] for r in rep.vanishing_rows}
    assert radii == {(2.0, 0.1): 5, (2.0, 0.01): 10, (3.0, 0.1): 7,
                     (3.0, 0.01): 14, (4.0, 0.1): 10, (4.0, 0.01): 19}
    devs = {(r["n"], r["k"]): r["sup_dev"] for r in rep.deviation_rows}
    assert devs[(2.0, 4)] == pytest.approx(1 - math.exp(-2.0))
    assert any(r["spot_checked"] for r in rep.vanishing_rows)


def test_haagerup_witness_bounded_model(z6):
    rep = haagerup_witness_check(z6, [1, 2], [1, 2, 8], [0.01])
    assert rep.passed
    devs = {(r["n"], r["k"]): r["expected"] for r in rep.deviation_rows}
    # diameter 3 caps the deviation
    assert devs[(1.0, 8)] == pytest.approx(1 - math.exp(-3.0))
    assert all(r["vacuous"] for r in rep.vanishing_rows)


def test_pointwise_product(f2):
    tuples = [f2.ball(0, 1), f2.ball(0, 2)]
    rep = pointwise_product_check(f2, ExpLengthKernel(0.6), ExpLengthKernel(0.7), tuples)
    assert rep.passed
    assert rep.closure_max_dev is not None and rep.closure_max_dev <= 1e-12
    mixed = pointwise_product_check(f2, ExpLengthKernel(0.6), HaagerupKernel(2.0), tuples)
    assert mixed.passed and mixed.closure_max_dev is None
    assert all(r["min_eig"] >= -1e-9 for r in mixed.rows)


def test_kernel_json_roundtrip(f2):
    for kern in (ExpLengthKernel(0.35), HaagerupKernel(2.5)):
        data = etale.kernel_to_json(f2, kern)
        assert etale.kernel_from_json(f2, data) == kern
    table = TableKernel(f2, {f2.unit_element(0): 1.0, GroupoidElement(0, (1,)): 0.25 + 0.5j})
    data = etale.kernel_to_json(f2, table)
    back = etale.kernel_from_json(f2, data)
    assert back.radius == table.radius
    assert back.table == table.table
    with pytest.raises(ModelError):
        etale.kernel_from_json(f2, {"nope": 1})
    with pytest.raises(ModelError):
        etale.kernel_from_json(f2, {"exp_length": 0.5, "haagerup": 2})
