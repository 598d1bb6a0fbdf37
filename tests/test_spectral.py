"""Truncated reduced-norm estimates and the convolution-power route."""
import ast
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etale
from etale import (BudgetError, CcFunction, GroupoidElement, MeasureContext,
                   convolve, delta, involution, lp_norm, power_sequence_norm,
                   radial_convolve, radial_profile_of, reduced_norm,
                   reduced_norm_at_unit, sphere_indicator, unit_indicator,
                   verify_norm_bound)
from etale import spectral
from etale.spectral import _apply, _operator

ROOT = Path(__file__).resolve().parents[1]


def radial_function(model, coeffs):
    data = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for u in range(model.units):
            for g in model.sphere(u, k):
                data[g] = c
    return CcFunction(model, data)


def test_identity_has_norm_one(f2, z2_swap):
    for model in (f2, z2_swap):
        est = reduced_norm(unit_indicator(model), 2)
        assert est.value == pytest.approx(1.0, abs=1e-9)


def test_line_truncation_matches_path_spectrum(z):
    # compression of the generator walk to [-L, L] is a path graph whose
    # top eigenvalue is 2 cos(pi / (2L + 2))
    chi = sphere_indicator(z, 1)
    for L in (4, 16, 64):
        est = reduced_norm_at_unit(chi, 0, L, ladder=[L])
        assert est.value == pytest.approx(2 * math.cos(math.pi / (2 * L + 2)), abs=1e-9)


def test_tree_truncations_increase_below_limit(f2):
    est = reduced_norm_at_unit(sphere_indicator(f2, 1), 0, 8, ladder=[4, 6, 8])
    values = [r[1] for r in est.trace]
    assert values == sorted(values)
    assert est.monotone
    assert values[0] == pytest.approx(3.088912635, abs=1e-8)
    assert values[-1] == pytest.approx(3.320059590, abs=1e-8)
    assert values[-1] < 2 * math.sqrt(3)
    assert est.L == 8 and est.value == values[-1]


def test_norm_of_adjoint_square(z):
    # estimate(f^* f) tracks estimate(f)^2 once the window is wide
    chi = sphere_indicator(z, 1)
    est = reduced_norm_at_unit(chi, 0, 64, ladder=[64])
    est_sq = reduced_norm_at_unit(convolve(involution(chi), chi), 0, 64, ladder=[64])
    assert est_sq.value == pytest.approx(est.value ** 2, rel=1e-3)


def test_norm_scales_and_adjoint_invariant(f2):
    rng = np.random.default_rng(19)
    from conftest import random_function
    f = random_function(f2, rng, 2, 12)
    a = reduced_norm_at_unit(f, 0, 4, ladder=[4]).value
    b = reduced_norm_at_unit(involution(f), 0, 4, ladder=[4]).value
    c = reduced_norm_at_unit(2.0 * f, 0, 4, ladder=[4]).value
    assert b == pytest.approx(a, rel=1e-8)
    assert c == pytest.approx(2 * a, rel=1e-8)


def test_reduced_norm_scans_units(f2_32):
    est = reduced_norm(sphere_indicator(f2_32, 1), 2)
    assert est.units_checked == list(range(32))
    solo = reduced_norm_at_unit(sphere_indicator(f2_32, 1), 0, 2)
    assert est.value == pytest.approx(solo.value, rel=1e-9)


def test_ladder_validation(f2):
    chi = sphere_indicator(f2, 1)
    with pytest.raises(ValueError):
        reduced_norm_at_unit(chi, 0, 6, ladder=[4, 8])
    rows = reduced_norm_at_unit(chi, 0, 4, ladder=[2, 4]).csv_rows()
    assert rows[0] == ("L", "value", "iterations", "residual", "converged")
    assert len(rows) == 3


def test_radial_profile_detection(f2, f2_32, z6):
    assert radial_profile_of(sphere_indicator(f2, 2)) == [0, 0, 1]
    assert radial_profile_of(sphere_indicator(f2_32, 1)) == [0, 1]
    assert radial_profile_of(CcFunction(f2)) == []
    assert radial_profile_of(delta(f2, GroupoidElement(0, (1,)))) is None
    assert radial_profile_of(sphere_indicator(z6, 1)) is None  # finite backend
    partial = sphere_indicator(f2_32, 1)
    partial.data.pop(GroupoidElement(3, (1,)))
    assert radial_profile_of(partial) is None
    mixed = radial_function(f2, [0, 0.5])
    assert radial_profile_of(mixed) == [0.0, 0.5]
    cplx = radial_function(f2, [0, 1j])
    assert radial_profile_of(cplx) == [0, 1j]


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 2),
       c1=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       c2=st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_radial_convolve_matches_sparse(rank, c1, c2):
    # compared in the sphere coordinates y_l = g_l sqrt(s_l), to 1e-14 of the
    # largest coefficient
    model = etale.group_model(etale.FreeGroup(rank))
    product = convolve(radial_function(model, c1), radial_function(model, c2))
    profile = radial_profile_of(product)
    assert profile is not None
    R = len(c1) + len(c2) - 2
    roots = np.sqrt([float(model.sphere_count(l)) for l in range(R + 1)])
    expect = np.zeros(R + 1)
    expect[:len(profile)] = profile
    y = np.zeros(R + 1)
    y[:len(c2)] = c2
    got = radial_convolve(spectral._radial_bands(rank, c1, R), y * roots)
    np.testing.assert_allclose(got, expect * roots, rtol=0, atol=1e-14 * max(1, *abs(got)))


def test_radial_convolve_budget(f2, mu_f2, monkeypatch):
    # 2^(n_max+1) products with S of radius R = 2^(n_max+1) K, each of
    # (R+1)(2K+1) multiply-adds, are charged before any band is built
    def bands(*args):
        raise AssertionError("a band was built")

    chi = sphere_indicator(f2, 1)
    ok = power_sequence_norm(chi, 3, mu_f2, budget=16 * 17 * 3)
    monkeypatch.setattr(spectral, "_radial_bands", bands)
    with pytest.raises(BudgetError) as err:
        power_sequence_norm(chi, 3, mu_f2, budget=16 * 17 * 3 - 1)
    assert err.value.required == 16 * 17 * 3
    assert str(err.value) == "radial power sequence needs 816 multiply-adds, budget is 815"
    with pytest.raises(BudgetError) as err:
        power_sequence_norm(sphere_indicator(f2, 2), 40, mu_f2)
    assert err.value.required == 2 ** 41 * (2 ** 42 + 1) * 5
    assert str(err.value) == (f"radial power sequence needs {2 ** 41 * (2 ** 42 + 1) * 5} "
                              "multiply-adds, budget is 10000000")
    assert ok.method == "radial" and len(ok.entries) == 3


def test_power_sequence_line_binomials(z, mu_z):
    # the 2m-step return counts of the +/-1 walk are central binomials
    chi = sphere_indicator(z, 1)
    ps = power_sequence_norm(chi, 5, mu_z)
    assert ps.method == "radial"
    for n, value in ps.entries:
        m = 2 ** (n + 1)
        assert value == pytest.approx(math.comb(2 * m, m) ** (1 / (2 * m)), rel=1e-12)
    vals = ps.values()
    assert vals == sorted(vals)
    assert ps.csv_rows()[0] == ("n", "value")
    # n_max = 12 is 2^13 products of 8,193 rows by 3 diagonals: refused under the
    # default budget, and in well under a second when the budget allows it
    cost = 2 ** 13 * 8193 * 3
    with pytest.raises(BudgetError) as err:
        power_sequence_norm(chi, 12, mu_z)
    assert err.value.required == cost
    start = time.perf_counter()
    ps = power_sequence_norm(chi, 12, mu_z, budget=cost)
    assert time.perf_counter() - start < 1.0
    for n, value in ps.entries:
        m = 2 ** (n + 1)
        expect = math.exp(math.log(math.comb(2 * m, m)) / (2 * m))
        assert value == pytest.approx(expect, rel=2e-15)


def test_power_sequence_radial_vs_sparse(f2, mu_f2):
    chi = sphere_indicator(f2, 1)
    ps = power_sequence_norm(chi, 2, mu_f2)
    assert ps.method == "radial"
    h = convolve(involution(chi), chi)
    manual = []
    for n in (1, 2):
        h = convolve(h, h)
        manual.append(lp_norm(h, 2, mu_f2) ** (1.0 / (2 * 2 ** n)))
    for (n, value), expect in zip(ps.entries, manual):
        assert value == pytest.approx(expect, rel=1e-11)


def test_power_sequence_mixed_profile(f2, mu_f2):
    for coeffs in ([0, 1, 0.5], [0.5, 1 + 0.5j]):
        f = radial_function(f2, coeffs)
        ps = power_sequence_norm(f, 1, mu_f2)
        h = convolve(involution(f), f)
        h = convolve(h, h)
        assert ps.entries[0][1] == pytest.approx(lp_norm(h, 2, mu_f2) ** 0.25, rel=1e-11)


def test_power_sequence_of_identity(f2, mu_f2):
    ps = power_sequence_norm(unit_indicator(f2), 3, mu_f2)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in ps.values())


def test_power_sequence_sparse_path_and_budget(f2, mu_f2, f2_32, mu_f2_32):
    f = delta(f2, GroupoidElement(0, (1,))) + 2.0 * delta(f2, GroupoidElement(0, (2,)))
    ps = power_sequence_norm(f, 2, mu_f2)
    assert ps.method == "sparse"
    h = convolve(involution(f), f)
    h = convolve(h, h)
    assert ps.entries[0][1] == pytest.approx(lp_norm(h, 2, mu_f2) ** 0.25, rel=1e-11)
    with pytest.raises(BudgetError) as err:
        power_sequence_norm(f, 6, mu_f2, budget=5)
    assert "n=" in str(err.value)
    assert err.value.required > err.value.budget
    with pytest.raises(ValueError):
        power_sequence_norm(f, 0, mu_f2)


def test_power_sequence_budget_refuses_before_squaring(f2, mu_f2):
    # h has 9841 support points after n=2, so the n=3 square needs 9841^2
    # pair products: the default budget must refuse it before making any
    a, b = GroupoidElement(0, (1,)), GroupoidElement(0, (2,))
    f = delta(f2, a) + delta(f2, f2.inverse(a)) - delta(f2, b) - delta(f2, f2.inverse(b))
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        power_sequence_norm(f, 3, mu_f2)
    assert err.value.required == 9841 ** 2
    assert str(err.value) == ("power sequence exceeded budget at n=3: convolution needs "
                              "96845281 pair products, budget is 10000000")
    assert time.perf_counter() - start < 1.0


def test_sparse_power_sequence_stays_in_the_float_range(f2, mu_f2, z6):
    # h is carried as 2^E h: a tiny or huge f, and a z6 chi_1 whose h_n
    # passes the float range from n = 9, read their true values
    a = GroupoidElement(0, (1,))
    for c in (1e-100, 1e100):
        ps = power_sequence_norm(c * delta(f2, a), 2, mu_f2)
        assert ps.method == "sparse" and ps.values() == pytest.approx([c, c], rel=1e-15)
    # |h_n|^2 = (2 16^m + 4) / 6 with m = 2^n, from chi_1's eigenvalues
    # 2 cos(2 pi j / 6) on Z/6
    values = power_sequence_norm(sphere_indicator(z6, 1), 12, MeasureContext.uniform(z6)).values()
    for n, value in enumerate(values, start=1):
        m = 2 ** n
        log_norm2 = math.log(2) + m * math.log(16) + math.log1p(2 / 16 ** m) - math.log(6)
        assert value == pytest.approx(math.exp(log_norm2 / (4 * m)), rel=1e-15)


def test_power_sequence_past_the_float_range_refused(f2, mu_f2):
    a = GroupoidElement(0, (1,))
    # 2^(n_max + 1) leaves the float range past 1022: refused on both paths
    # before any charged work, which a budget of 0 would refuse (a huge n_max,
    # whose 2^(n_max + 1) would hang, runs in test_cli's child processes)
    for f in (delta(f2, a), sphere_indicator(f2, 1)):
        for n_max in (0, 1023):
            with pytest.raises(ValueError, match=r"n_max must lie in 1\.\.1022"):
                power_sequence_norm(f, n_max, mu_f2, budget=0)
    assert power_sequence_norm(delta(f2, a), 1022, mu_f2).values() == [1.0] * 1022
    # the sparse path refuses a value past the largest float, and an f whose
    # entries for one element add to inf
    b = GroupoidElement(0, (2,))
    huge, inf = 1.5e308 * (delta(f2, a) + delta(f2, b)), 1.7e308 * delta(f2, a)
    for f in (huge, inf + inf):
        with pytest.raises(ValueError, match=etale.algebra.NOT_FINITE):
            power_sequence_norm(f, 1, mu_f2)


def test_norm_bound_is_decided_on_the_printed_floats(f2, mu_f2):
    # a C that puts rhs below lhs by less than 1e-9 relative fails the bound
    rep = verify_norm_bound(f2, mu_f2, 0.5, 2, 2.0, 1.0, L=4)
    for slack, passed in ((-5e-10, False), (5e-10, True)):
        C = rep.lhs / rep.rhs * (1 + slack)
        tight = verify_norm_bound(f2, mu_f2, 0.5, 2, 2.0, C, L=4)
        assert tight.lhs == rep.lhs and (tight.rhs < tight.lhs) is not passed
        assert abs(tight.rhs / tight.lhs - 1) < 1e-9 and tight.passed is passed


def test_verify_norm_bound(f2, mu_f2):
    rep = verify_norm_bound(f2, mu_f2, 0.5, 2, 2.0, 5.0, L=4)
    assert rep.passed
    assert rep.q == 2.0
    assert rep.rhs == pytest.approx(2 * 5 * 3 * lp_norm(
        etale.length_weighted(f2, 0.5, 2), 2.0, mu_f2))
    assert rep.lhs <= rep.rhs
    rep43 = verify_norm_bound(f2, mu_f2, 0.5, 2, 4.0, 5.0, L=4)
    assert rep43.q == pytest.approx(4 / 3)
    with pytest.raises(ValueError):
        verify_norm_bound(f2, mu_f2, 0.5, 2, 1.5, 5.0)


def operator_at(f, u, L):
    """``(cols, vals)`` of rung L at unit u, read off a ball tree built at
    L + 2, so that the prefix and the clamp at n are in play."""
    model = f.model
    parent, gen, right = model.ball_tree(L + 2)
    at, *_ = _operator(f, right, [model.ball_count(L), model.ball_count(L + 2)])
    return at(0, model.unit_labels(u, parent, gen))


def dense_operator(f, u, L):
    """The truncated operator of ``operator_at`` as a dense matrix."""
    cols, vals = operator_at(f, u, L)
    n = cols.shape[1]
    D = np.zeros((n, n + 1), dtype=complex)
    for k in range(len(cols)):
        D[np.arange(n), cols[k]] += vals[k]
    return D[:, :n]  # column n is the pad


def brute_operator(f, u, L):
    """M[i, j] = f(x) for x y_j = y_i on the source ball, by word products."""
    model = f.model
    basis = model.source_ball(u, L)
    index = {y: i for i, y in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, va in f.items():
        for j, y in enumerate(basis):
            if model.source_unit(a) == y.unit:
                i = index.get(GroupoidElement(a.unit, model.backend.mul(a.word, y.word)))
                if i is not None:
                    M[i, j] = va
    return M


def test_truncated_operator_matches_brute_force(f2, z, z6, z2_swap, s3):
    f2_32 = etale.load_model(ROOT / "models" / "f2_32units.json")
    rng = np.random.default_rng(5)
    from conftest import random_function
    a, b = GroupoidElement(0, (1,)), GroupoidElement(0, (2,))
    odd = delta(f2, a) + delta(f2, f2.inverse(a)) - delta(f2, b) - delta(f2, f2.inverse(b))
    unit_dependent = CcFunction(f2_32, {GroupoidElement(u, w): complex(u + 1, len(w) - u % 3)
                                        for u in range(0, 32, 3)
                                        for w in ((), (1,), (-2,), (1, 2))})
    cases = [sphere_indicator(f2, 1), sphere_indicator(f2, 2), odd,
             random_function(f2, rng, 2, 12), unit_dependent,
             sphere_indicator(z, 1), random_function(z, rng, 3, 5),
             random_function(z6, rng, 3, 4), sphere_indicator(z6, 2),
             random_function(z2_swap, rng, 1, 3), random_function(s3, rng, 2, 8)]
    for f in cases:
        units = sorted({0, f.model.units - 1, 3 % f.model.units})
        for L in (0, 1, 3, 5):
            for u in units:
                M = dense_operator(f, u, L)
                assert np.array_equal(M, brute_operator(f, u, L))
                assert np.array_equal(dense_operator(involution(f), u, L), M.conj().T)


def svd_top(M):
    """Largest singular value by numpy.linalg.svd, in real arithmetic if M is real."""
    return np.linalg.svd(M if M.imag.any() else M.real, compute_uv=False)[0]


def test_non_abelian_norm_matches_dense_svd(s3, monkeypatch):
    # positive coefficients and not self-adjoint, so the solve runs on M^H M;
    # and every delta_x - delta_y on unit 0, whose operator rows sum to zero
    # (power iteration from the all-ones vector reported 0.0 for them).  At
    # most 6 rows, so dense; with the cutoff at 0 the same rungs run Lanczos
    f = CcFunction(s3, {GroupoidElement(u, e): 1.0 + (u + 2 * e) % 5
                        for u in range(3) for e in (0, 1, 3, 4)})
    assert involution(f) != f
    cases = [(f, L) for L in (1, 2, 3)]
    cases += [(delta(s3, GroupoidElement(0, x)) - delta(s3, GroupoidElement(0, y)), 2)
              for x in range(6) for y in range(x)]
    for dense_rows in (spectral.DENSE_ROWS, 0):
        monkeypatch.setattr(spectral, "DENSE_ROWS", dense_rows)
        for g, L in cases:
            for u in range(3):
                top = svd_top(brute_operator(g, u, L))
                est = reduced_norm_at_unit(g, u, L, ladder=[L])
                assert est.converged
                assert est.value == pytest.approx(top, rel=1e-9)


def test_odd_and_zero_row_functions_match_dense_svd(z, f2, z6, monkeypatch):
    # the functions power iteration from the all-ones vector got wrong:
    # odd ones converged to a lower singular value, and the start vector
    # lay in the kernel of the zero-row one.  Odd Z at L = 8 (17 rows) and the
    # zero-row one are solved densely, odd Z at L = 40 (81 rows) and odd F2
    # (161 and 1457 rows) by Lanczos; with the cutoff at 0 every one by Lanczos
    a, b = GroupoidElement(0, (1,)), GroupoidElement(0, (2,))
    odd_z = delta(z, a) - delta(z, z.inverse(a))
    odd_f2 = delta(f2, a) + delta(f2, f2.inverse(a)) - delta(f2, b) - delta(f2, f2.inverse(b))
    zero_rows = delta(z6, GroupoidElement(0, 1)) - delta(z6, GroupoidElement(0, 0))
    for f, L, value in ((odd_z, 8, 1.9696), (odd_z, 40, 1.9985), (odd_f2, 4, 3.0889),
                        (odd_f2, 6, 3.2454), (zero_rows, 4, 2.0)):
        top = svd_top(dense_operator(f, 0, L))
        assert top == pytest.approx(value, abs=5e-5)
        for dense_rows in (spectral.DENSE_ROWS, 0):
            monkeypatch.setattr(spectral, "DENSE_ROWS", dense_rows)
            est = reduced_norm(f, L, ladder=[L])
            assert est.converged and (est.iterations > 0) == (f.model.ball_count(L) > dense_rows)
            assert est.value == pytest.approx(top, rel=1e-9)


def test_close_top_singular_values_converge(monkeypatch):
    # an independent U(0.5, 1.5) coefficient on (u, x) and on (u.x, x^-1)
    # for every unit u and generator x: not self-adjoint, and the top two
    # singular values at unit 14 lie within 2e-5 of each other.  The 53-row
    # rungs are dense; with the cutoff at 0 the same rungs run Lanczos
    model = etale.load_model(ROOT / "models" / "f2_32units.json")
    rng = random.Random(19)
    data = {}
    for u in range(model.units):
        for x in ((1,), (2,)):
            g = GroupoidElement(u, x)
            data[g] = round(rng.uniform(0.5, 1.5), 6)
            data[model.inverse(g)] = round(rng.uniform(0.5, 1.5), 6)
    f = CcFunction(model, data)
    assert involution(f) != f
    tops = [np.linalg.svd(dense_operator(f, u, 3).real, compute_uv=False)[:2]
            for u in range(model.units)]
    assert min((s0 - s1) / s0 for s0, s1 in tops) < 2e-5
    for dense_rows in (spectral.DENSE_ROWS, 0):
        monkeypatch.setattr(spectral, "DENSE_ROWS", dense_rows)
        for u, top2 in enumerate(tops):
            est = reduced_norm_at_unit(f, u, 3, ladder=[3])
            assert est.converged and (est.iterations > 0) == (dense_rows == 0)
            assert est.value == pytest.approx(top2[0], rel=1e-9)
        est = reduced_norm(f, 3)
        assert est.converged and est.unit == int(np.argmax([t[0] for t in tops]))


def test_zero_operator_has_norm_zero(z2_swap):
    # z2_swap has no word of length 2, so alpha^2 chi_2 is the zero function
    f = etale.length_weighted(z2_swap, 0.5, 2)
    assert len(f) == 0
    est = reduced_norm(f, 4)  # 2 rows: solved densely
    assert (est.value, est.iterations, est.residual, est.converged) == (0.0, 0, 0.0, True)
    mu = MeasureContext.uniform(z2_swap)
    assert verify_norm_bound(z2_swap, mu, 0.5, 2, 2.0, 1.0, L=4).lhs == 0.0


def test_dense_rungs_match_svd(f2, f2_32, z6, z2_swap):
    # every rung up to DENSE_ROWS rows is one eigh of the dense operator (of
    # M^H M when f is not self-adjoint), checked against the SVD of the
    # operator built by word products
    rng = np.random.default_rng(23)
    from conftest import random_function
    a, b = GroupoidElement(0, (1,)), GroupoidElement(0, (2,))
    odd = delta(f2, a) + delta(f2, f2.inverse(a)) - delta(f2, b) - delta(f2, f2.inverse(b))
    cases = [
        odd,  # real, self-adjoint, spectrum symmetric about 0
        -unit_indicator(f2) - sphere_indicator(f2, 1),  # its top eigenvalue is negative
        delta(f2, a) + 2.0 * delta(f2, b),  # real, M^H M
        1j * delta(f2, a) - 1j * delta(f2, f2.inverse(a)),  # complex, self-adjoint
        (0.5 - 1.5j) * sphere_indicator(f2, 1),  # complex, M^H M
        random_function(f2, rng, 2, 12),
        CcFunction(f2_32, {GroupoidElement(u, w): complex(u + 1, len(w) - u % 3)
                           for u in range(0, 32, 3) for w in ((), (1,), (-2,), (1, 2))}),
        CcFunction(f2_32, {GroupoidElement(u, w): 1.0 + (u % 4 == 3) for u in range(32)
                           for w in ((1,), (-1,), (2,), (-2,))}),
        sphere_indicator(z6, 1), -sphere_indicator(z6, 2), random_function(z6, rng, 3, 4),
        sphere_indicator(z2_swap, 1), random_function(z2_swap, rng, 1, 3),
        CcFunction(f2),
    ]
    for f in cases:
        assert f.model.ball_count(3) <= spectral.DENSE_ROWS
        for u in sorted({0, f.model.units - 1, 3 % f.model.units}):
            est = reduced_norm_at_unit(f, u, 3, ladder=[0, 1, 2, 3])
            for L, value, iterations, residual, converged in est.trace:
                assert iterations == 0 and converged
                assert value == pytest.approx(svd_top(brute_operator(f, u, L)), rel=1e-13, abs=0)
    # converged keeps its rule: residual <= tol * max(1, theta)
    for tol in (0.0, 1e-10):
        est = reduced_norm_at_unit(odd, 0, 3, tol=tol, ladder=[3])
        assert 0 < est.residual < 1e-13 and est.converged == (tol > 0)


def test_dense_and_lanczos_agree_across_the_cutoff(z):
    # on Z the ball of radius L has 2L + 1 rows: a dense rung of exactly
    # DENSE_ROWS rows and a Lanczos rung of two more, of one operator each
    L = (spectral.DENSE_ROWS - 1) // 2
    assert z.ball_count(L) == spectral.DENSE_ROWS
    a = GroupoidElement(0, (1,))
    odd = delta(z, a) - delta(z, z.inverse(a))  # not self-adjoint: M^H M
    for f in (-sphere_indicator(z, 1), odd, (2 - 1j) * delta(z, a) + delta(z, z.inverse(a))):
        est = reduced_norm_at_unit(f, 0, L + 1, ladder=[L, L + 1])
        (_, dense, k0, _, ok0), (_, lanczos, k1, _, ok1) = est.trace
        assert k0 == 0 < k1 and ok0 and ok1
        assert dense == pytest.approx(svd_top(brute_operator(f, 0, L)), rel=1e-13, abs=0)
        assert lanczos == pytest.approx(svd_top(brute_operator(f, 0, L + 1)), rel=1e-13, abs=0)


def test_apply_matches_gather_sum(f2, f2_32):
    # row-by-row accumulation in place gives the bits of the (k, n) gather-sum;
    # a unit-free f holds one value per word, repeated along its row here
    rng = np.random.default_rng(3)
    from conftest import random_function
    cases = [sphere_indicator(f2, 1), random_function(f2, rng, 2, 12),
             random_function(f2_32, rng, 2, 40), CcFunction(f2),
             (0.5 - 1.5j) * sphere_indicator(f2_32, 2)]
    for f in cases:
        cols, vals = op = operator_at(f, 0, 4)
        n = cols.shape[1]
        rows = np.broadcast_to(vals[:, None] if vals.ndim == 1 else vals, cols.shape)
        for v in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            x = np.append(v, 0)[cols]
            if vals.dtype.kind == "c":
                want = ((rows.real * x.real - rows.imag * x.imag).sum(0)
                        + 1j * (rows.real * x.imag + rows.imag * x.real).sum(0))
            else:
                want = (rows * x).sum(0)
            assert np.array_equal(_apply(op, v), want)


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3"])
def test_self_adjointness_read_off_the_value_table(name, s3, monkeypatch):
    # f^* = f is decided on _operator's words x units value table exactly as
    # by comparing involution(f) with f, and involution is built only when
    # it is false
    from conftest import random_function
    model = s3 if name == "s3" else etale.load_model(ROOT / "models" / f"{name}.json")
    rng = np.random.default_rng(53)
    right = model.ball_tree(3)[2]
    cases = []
    for complex_values in (True, False):
        f = random_function(model, rng, 2, 9, complex_values)
        sym = f + involution(f)
        bumped = CcFunction(model, {**sym.data, next(iter(sym.data)): 7.0 + 1j})
        one_sided = CcFunction(model, {g: v for g, v in sym.items() if model.length(g) != 1})
        cases += [f, sym, bumped, one_sided, sym * 1j, sphere_indicator(model, 1)]
    # every value 1, so only the missing inverse of x tells it from f^*
    x = model.sphere(0, 1)[0].word
    cases.append(CcFunction(model, {g: 1.0 for u in range(model.units)
                                    for g in (model.unit_element(u), GroupoidElement(u, x))}))
    for f in cases:
        want = involution(f) == f
        assert _operator(f, right, [model.ball_count(3)])[2] == want
    built = []
    monkeypatch.setattr(spectral, "involution", lambda f: built.append(f) or involution(f))
    for f in cases:
        built.clear()
        spectral._Solves(f, [1, 2], 100, 1e-10, 0, None, 0)
        assert built == ([] if involution(f) == f else [f])


def test_real_operator_gathered_without_complex_copy(f2, f2_32):
    # a unit-free f holds one value per word, not one per word and row
    parent, gen, right = f2.ball_tree(10)
    at, unit_free, self_adjoint = _operator(sphere_indicator(f2, 1), right, [f2.ball_count(10)])
    assert unit_free and self_adjoint
    cols, vals = at(0, None)
    assert cols.shape == (4, f2.ball_count(10)) and vals.shape == (4,)
    # a real unit-dependent f keeps a real value table, so one gather
    # allocates little beyond the columns and float64 values it returns (a
    # complex gather and its real copy took twice that)
    g = CcFunction(f2_32, {GroupoidElement(u, w): 1.0 + (u % 4 == 3) for u in range(32)
                           for w in ((1,), (-1,), (2,), (-2,))})
    parent, gen, right = f2_32.ball_tree(8)
    at, unit_free, _ = _operator(g, right, [f2_32.ball_count(8)])
    assert not unit_free
    labels = f2_32.unit_labels(0, parent, gen)
    tracemalloc.start()
    try:
        cols, vals = at(0, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.dtype == np.float64 and vals.shape == cols.shape == (4, f2_32.ball_count(8))
    assert peak <= 1.1 * (cols.nbytes + vals.nbytes)


def test_converged_means_residual_within_tol(z):
    # the top Ritz value stalls well before its residual reaches a coarse
    # tol, so a stalled value alone must not count as converged
    chi = sphere_indicator(z, 1)
    a = GroupoidElement(0, (1,))
    odd = delta(z, a) - delta(z, z.inverse(a))
    for f, L in ((chi, 100), (odd, 100)):
        top = 2 * math.cos(math.pi / (2 * L + 2))
        for tol in (1e-4, 1e-6, 1e-8):
            est = reduced_norm_at_unit(f, 0, L, tol=tol, ladder=[L], max_iter=10_000)
            assert est.converged
            theta = est.value if f is chi else est.value ** 2
            assert est.residual <= tol * max(1.0, theta)
            assert est.value <= top * (1 + 1e-12)
    # out of steps: the estimate is reported, not converged
    est = reduced_norm_at_unit(odd, 0, 100, ladder=[100], max_iter=3)
    assert not est.converged and est.iterations == 3


def test_convergence_is_relative_to_the_value(f2):
    # the stall and residual tests scale with |theta|: c f stops after the
    # steps f takes, with c times its value, however small c is.  Unscaled,
    # the first M^H M v of 2^-300 f underflowed, and Lanczos read 0.769 c
    # after 1 step, "converged"; 2^300 f was refused
    a = GroupoidElement(0, (1,))
    cases = ((delta(f2, a) + 0.5 * delta(f2, GroupoidElement(0, (2,))), 4),  # 161 rows
             (sphere_indicator(f2, 1) + delta(f2, a), 8))
    for f, L in cases:
        ref = reduced_norm(f, L, ladder=[L])
        assert ref.iterations > 2
        for c in (1.0, 1e-3, 1e-6, 2.0 ** -300, 2.0 ** 300):
            est = reduced_norm(c * f, L, ladder=[L])
            assert est.converged and est.iterations == ref.iterations
            assert est.value / c == pytest.approx(ref.value, rel=1e-12)


def test_lanczos_step_count_on_tree(f2):
    # F2 chi_1 at L=10 (118,097 rows) converges in ~60 Lanczos steps; power
    # iteration needed 222.  -chi_1 has the same norm and stays on Lanczos
    est = reduced_norm_at_unit(-sphere_indicator(f2, 1), 0, 10, ladder=[10])
    assert est.converged
    assert est.iterations <= 80


def test_unit_solves_shared_and_operators_built_once(f2, f2_32, monkeypatch):
    # ladder [3, 4] has 53 and 161 rows: one dense and one Lanczos rung
    assert f2.ball_count(3) <= spectral.DENSE_ROWS < f2.ball_count(4)
    calls = {"dense": 0, "lanczos": 0, "build": 0, "tree": 0, "labels": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    chi = -sphere_indicator(f2_32, 1)  # negative: not the sphere quotient
    monkeypatch.setattr(spectral, "_dense", counted("dense", spectral._dense))
    monkeypatch.setattr(spectral, "_lanczos", counted("lanczos", spectral._lanczos))
    monkeypatch.setattr(spectral, "_operator", counted("build", spectral._operator))
    monkeypatch.setattr(etale.FreeGroup, "ball_tree", counted("tree", etale.FreeGroup.ball_tree))
    monkeypatch.setattr(etale.GroupoidModel, "unit_labels",
                        counted("labels", etale.GroupoidModel.unit_labels))
    # self-adjoint and the same values at every range unit: one tree and one
    # column build for the whole ladder, one solve per rung and no unit labels
    est = reduced_norm(chi, 4, ladder=[3, 4])
    assert calls == {"dense": 1, "lanczos": 1, "build": 1, "tree": 1, "labels": 0}
    assert est.units_checked == list(range(32)) and est.unit == 0
    assert [row[2] == 0 for row in est.trace] == [True, False]
    # not self-adjoint: one column build for f and one for f^*
    calls.update(dense=0, lanczos=0, build=0, tree=0)
    f = delta(f2, GroupoidElement(0, (1,))) + 2.0 * delta(f2, GroupoidElement(0, (2,)))
    reduced_norm(f, 4, ladder=[3, 4])
    assert calls == {"dense": 1, "lanczos": 1, "build": 2, "tree": 1, "labels": 0}
    # unit-dependent: every unit is labelled and solved at every rung, and the
    # reported unit is the first to reach the maximum
    g = CcFunction(f2_32, {GroupoidElement(u, w): 1.0 + (u % 4 == 3) for u in range(32)
                           for w in ((1,), (-1,), (2,), (-2,))})
    calls.update(dense=0, lanczos=0, tree=0)
    reduced_norm(g, 4, ladder=[3, 4])
    assert (calls["dense"], calls["lanczos"], calls["labels"]) == (32, 32, 32)
    calls.update(tree=0)
    est = reduced_norm(g, 2, ladder=[2])
    assert calls["tree"] == 1
    per_unit = [reduced_norm_at_unit(g, u, 2, ladder=[2]).value for u in range(32)]
    assert calls["tree"] == 33
    assert est.value == max(per_unit) and est.unit == per_unit.index(max(per_unit))


def test_over_budget_top_rung_refused_before_any_solve(f2, monkeypatch):
    def solve(*args):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(spectral, "_dense", solve)
    monkeypatch.setattr(spectral, "_lanczos", solve)
    chi = -sphere_indicator(f2, 1)  # negative: not the sphere quotient
    with pytest.raises(BudgetError) as err:
        reduced_norm(chi, 6, ladder=[2, 4, 6], budget=f2.ball_count(4))
    assert err.value.required == f2.ball_count(6)
    # the default ladder's rungs 4 to 12 fit the default budget; L = 5000 does not
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        reduced_norm_at_unit(chi, 0, 5000)
    assert time.perf_counter() - start < 0.5


def test_unit_sample_beyond_cap():
    # 70 units on a cycle: a seeded sample of 64 units is solved
    model = etale.build_model(etale.FreeGroup(1), 70, [[(u + 1) % 70 for u in range(70)]])
    f = CcFunction(model, {GroupoidElement(u, w): 1.0 + u / 70
                           for u in range(70) for w in ((1,), (-1,))})
    runs = [reduced_norm(f, 3, ladder=[3], seed=s) for s in (4, 4, 5)]
    units = runs[0].units_checked
    assert len(units) == spectral.UNIT_SAMPLE == 64
    assert units == sorted(set(units)) and set(units) <= set(range(70))
    assert runs[1].units_checked == units and runs[2].units_checked != units
    per_unit = [reduced_norm_at_unit(f, u, 3, ladder=[3], seed=4).value for u in units]
    assert runs[0].value == max(per_unit)
    assert runs[0].unit == units[per_unit.index(max(per_unit))]
    # the same values at every range unit: the first sampled unit stands for all
    chi = sphere_indicator(model, 1)
    est = reduced_norm(chi, 3, ladder=[3], seed=4)
    assert est.units_checked == units and est.unit == units[0]
    assert est.value == reduced_norm_at_unit(chi, units[-1], 3, ladder=[3], seed=4).value
    assert est.value == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-9)


def loop_oracle(f, L, units, **kwargs):
    """``reduced_norm`` as a loop over every unit: the first to reach the
    largest top-rung value, each unit solved on its own."""
    best = max((reduced_norm_at_unit(f, u, L, **kwargs) for u in units),
               key=lambda est: est.value)
    best.units_checked = units
    return best


def test_unit_ranking_matches_loop_over_units(f2_32, z2_swap, monkeypatch):
    rng = np.random.default_rng(29)
    a, b = (np.array(p) for p in f2_32.action)
    # self-adjoint: (u, x) and its inverse (u.x, x^-1) share a coefficient
    seeded = {}
    for u in range(32):
        for x, perm in (((1,), a), ((2,), b)):
            c = rng.uniform(0.5, 1.5)
            seeded[GroupoidElement(u, x)] = seeded[GroupoidElement(int(perm[u]), (-x[0],))] = c
    seeded = CcFunction(f2_32, seeded)
    assert involution(seeded) == seeded
    skew = CcFunction(f2_32, {GroupoidElement(u, w): complex(*rng.uniform(-1, 1, 2))
                              for u in range(32) for w in ((1,), (2,), (1, 2))})
    assert involution(skew) != skew
    # 70 units on a cycle, past UNIT_SAMPLE
    cycle70 = etale.build_model(etale.FreeGroup(1), 70, [[(u + 1) % 70 for u in range(70)]])
    f70 = CcFunction(cycle70, {GroupoidElement(u, w): rng.uniform(0.5, 1.5)
                               for u in range(70) for w in ((1,), (-1,))})
    # on a 64-cycle, f(y, -1) = f(1 - y, 1): the reflection y -> 1 - y maps
    # the fiber at 0 onto the fiber at 1 reversed, so their operators are
    # permutation-similar, and a wide bump of coefficients at 1/2 puts them
    # on top.  At L = 28 (57 rows) their values agree only to rounding, and
    # eigvalsh may order the two units otherwise than eigh does
    cycle = etale.build_model(etale.FreeGroup(1), 64, [[(u + 1) % 64 for u in range(64)]])
    up = [1 + 2 * math.exp(-((y + 32) % 64 - 32.5) ** 2 / 342) for y in range(64)]
    similar = CcFunction(cycle, {g: v for y in range(64) for g, v in (
        (GroupoidElement(y, (1,)), up[y]), (GroupoidElement(y, (-1,)), up[(1 - y) % 64]))})
    sim = [reduced_norm_at_unit(similar, u, 28, ladder=[28]).value for u in range(64)]
    assert sim[0] == pytest.approx(sim[1], rel=1e-13) and max(sim) == max(sim[:2])
    tie = delta(z2_swap, GroupoidElement(1, 1))
    for f, L, kwargs in ((seeded, 3, {}), (skew, 2, {}), (seeded, 3, {"ladder": [1, 2, 3]}),
                         (skew, 3, {"ladder": [0, 2, 3]}), (tie, 8, {}),
                         (f70, 5, {"ladder": [2, 5], "seed": 4}),
                         (similar, 28, {"ladder": [12, 28]})):
        est = reduced_norm(f, L, **kwargs)
        units = est.units_checked
        assert units == sorted(units) and len(units) == min(f.model.units, spectral.UNIT_SAMPLE)
        assert est == loop_oracle(f, L, units, **kwargs)
    assert reduced_norm(tie, 8).unit == 0
    # the stacked labels are the per-unit labels side by side
    parent, gen, _ = f2_32.ball_tree(3)
    assert np.array_equal(f2_32.unit_labels(np.arange(32), parent, gen),
                          np.stack([f2_32.unit_labels(u, parent, gen) for u in range(32)], 1))
    # one stacked eigvalsh ranks the units; one unit runs the ladder
    calls = {"eigvalsh": 0, "dense": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(spectral, "_dense", counted("dense", spectral._dense))
    reduced_norm(seeded, 3, ladder=[1, 2, 3])
    assert calls == {"eigvalsh": 1, "dense": 3}


def test_seed_changes_start_not_value(f2):
    f = delta(f2, GroupoidElement(0, (1,))) - 0.5 * delta(f2, GroupoidElement(0, (-2, 1)))
    runs = [reduced_norm(f, 5, seed=s) for s in (0, 1, 2, 0)]
    assert runs[0].trace == runs[3].trace
    assert runs[1].trace != runs[0].trace
    for est in runs:
        assert est.converged
        assert est.value == pytest.approx(runs[0].value, rel=1e-9)


def test_unit_and_tol_refused_before_the_tree(f2, monkeypatch):
    def tree(*args):
        raise AssertionError("the ball tree was built")

    chi = sphere_indicator(f2, 1)
    monkeypatch.setattr(etale.GroupoidModel, "ball_tree", tree)
    with pytest.raises(etale.ModelError, match="unit 99 out of range"):
        reduced_norm_at_unit(chi, 99, 12)
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            reduced_norm(chi, 3, tol=tol)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            reduced_norm_at_unit(chi, 0, 3, tol=tol)


def test_eigh_is_called_only_by_dense():
    # one dense solve: Lanczos and tridiagonal sphere quotients take their
    # eigenpairs from _tridiagonal_top, banded quotients from _dense
    tree = ast.parse((ROOT / "src" / "etale" / "spectral.py").read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    callers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "eigh" in (getattr(node.func, "attr", None),
                                                     getattr(node.func, "id", None)):
            while not isinstance(node, ast.FunctionDef):
                node = parent[node]
            callers.append(node.name)
    assert callers == ["_dense"]


def test_truncated_operator_checks_unit_and_budget(f2):
    chi = sphere_indicator(f2, 1)
    parent, gen, _ = f2.ball_tree(2)
    for u in (-1, 1):
        with pytest.raises(etale.ModelError):
            f2.unit_labels(u, parent, gen)
        with pytest.raises(etale.ModelError):
            reduced_norm_at_unit(chi, u, 2)
    with pytest.raises(BudgetError):
        f2.ball_tree(3, 52)
    with pytest.raises(BudgetError):  # -chi_1 enumerates the ball; chi_1 does not
        reduced_norm_at_unit(-chi, 0, 3, budget=52)


# (rank, coefficients of chi_0, chi_1, ..., L): chi_1, chi_2, chi_3, 0.25 chi_2,
# 0.7 chi_1 and chi_0 + chi_1 + 0.5 chi_2 on F_1, F_2 and F_3
QUOTIENT_CASES = [(1, [0, 1], 300), (1, [0, 0, 1], 40), (1, [0, 0, 0, 1], 25),
                  (1, [0, 0, 0.25], 60), (1, [0, 0.7], 100), (1, [1, 1, 0.5], 50),
                  (2, [0, 1], 10), (2, [0, 0, 1], 8), (2, [0, 0, 0, 1], 6),
                  (2, [0, 0, 0.25], 7), (2, [0, 0.7], 9), (2, [1, 1, 0.5], 8),
                  (3, [0, 1], 6), (3, [0, 0, 1], 5), (3, [1, 1, 0.5], 6)]


def test_quotient_limit_is_the_exact_norm():
    for rank, coeffs, limit in ((2, [0, 1], 2 * math.sqrt(3)), (1, [0, 1], 2.0),
                                (3, [0, 1], 2 * math.sqrt(5)), (2, [0, 0, 1], 8.0)):
        f = radial_function(etale.group_model(etale.FreeGroup(rank)), coeffs)
        est = reduced_norm(f, 4)
        assert est.method == "sphere_quotient"
        assert est.limit == pytest.approx(limit, rel=1e-15, abs=0)


def test_quotient_matches_lanczos_on_negated_function():
    # -f is signed, so it stays off the quotient, and its operator is -M: the
    # same norm, solved densely up to DENSE_ROWS rows and by Lanczos past them
    for rank, coeffs, L in QUOTIENT_CASES:
        model = etale.group_model(etale.FreeGroup(rank))
        f = radial_function(model, coeffs)
        est = reduced_norm(f, L)
        ref = reduced_norm(-f, L, ladder=[L])
        assert (est.method, ref.method) == ("sphere_quotient", "lanczos")
        assert est.value == pytest.approx(ref.value, rel=1e-13, abs=0)
        assert est.iterations == 0
        assert (ref.iterations == 0) == (model.ball_count(L) <= spectral.DENSE_ROWS)
        assert all(row[4] for row in est.trace) and est.monotone
        assert all(row[1] <= est.limit for row in est.trace)
        assert est.units_checked == [0] and est.unit == 0
    # complex, non-radial and finite-backend functions keep Lanczos too
    f2 = etale.group_model(etale.FreeGroup(2))
    z6 = etale.load_model(ROOT / "models" / "z6.json")
    for f in (radial_function(f2, [0, 1j]), delta(f2, GroupoidElement(0, (1,))),
              sphere_indicator(z6, 1)):
        assert reduced_norm(f, 3).method == "lanczos"


def test_quotient_at_radius_1000_builds_no_ball(f2, monkeypatch):
    def tree(*args):
        raise AssertionError("the ball tree was built")

    chi = sphere_indicator(f2, 1)
    near = reduced_norm(chi, 12).value
    monkeypatch.setattr(etale.GroupoidModel, "ball_tree", tree)
    est = reduced_norm(chi, 1000)
    assert est.converged and [row[0] for row in est.trace] == [4, 6, 8, 10, 12, 1000]
    assert est.trace[-2][1] == near
    assert near <= est.value <= est.limit == 2 * math.sqrt(3)


def test_over_budget_quotient_refused_before_any_work(f2, monkeypatch):
    # a banded S is charged the (L+1)^2 entries of its dense rungs, a
    # tridiagonal one TRIDIAGONAL_ROW entries a row, before any band is built
    def count(*args):
        raise AssertionError("a quotient entry was computed")

    monkeypatch.setattr(spectral, "_radial_bands", count)
    chi1, chi2 = sphere_indicator(f2, 1), sphere_indicator(f2, 2)
    for budget, L in ((120, 10), (None, 2236)):  # 11^2 and 2237^2 entries
        with pytest.raises(BudgetError) as err:
            reduced_norm_at_unit(chi2, 0, L, budget=budget)
        assert err.value.required == (L + 1) ** 2
    row, default = spectral.TRIDIAGONAL_ROW, etale.errors.DEFAULT_ENUMERATION_BUDGET
    for budget, L in ((11 * row - 1, 10), (None, default // row)):
        with pytest.raises(BudgetError) as err:
            reduced_norm_at_unit(chi1, 0, L, budget=budget)
        assert err.value.required == (L + 1) * row
    for budget, L in ((11 * row, 10), (None, default // row - 1)):  # admitted
        with pytest.raises(AssertionError, match="a quotient entry was computed"):
            reduced_norm_at_unit(chi1, 0, L, budget=budget)


def test_tridiagonal_quotient_holds_order_L(f2):
    # chi_1 at L = 20,000 under the default budget, where a dense S would
    # take 3.2 GB: the bands and the solve's lists stay within the charge
    chi, L = sphere_indicator(f2, 1), 20_000
    tracemalloc.start()
    try:
        est = reduced_norm(chi, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.converged and est.trace[-2][1] <= est.value <= est.limit
    assert peak <= 8 * spectral.TRIDIAGONAL_ROW * (L + 1)


EPS = np.finfo(float).eps


def tridiagonal(a, b):
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


def counted_sturm(monkeypatch):
    """Count the O(n) passes ``spectral._tridiagonal_top`` makes."""
    passes, sturm = [], spectral._sturm
    monkeypatch.setattr(spectral, "_sturm", lambda *args: passes.append(1) or sturm(*args))
    return passes


def positive_definite(a, b, x):
    """Whether ``x I - T`` is positive definite, by its LDL^T pivots in exact
    rational arithmetic: whether every eigenvalue of T is below x."""
    x, d = Fraction(x), Fraction(1)
    for ai, bi in zip(a, [0.0, *b]):
        d = x - Fraction(ai) - Fraction(bi) ** 2 / d
        if d <= 0:
            return False
    return True


def check_top(a, b, upper):
    """``_tridiagonal_top`` against exact Sturm counts and ``eigh``: the top
    eigenvalue lies within 4 eps m of theta (m the largest eigenvalue
    modulus), a unit vector and a residual within 1e-13.  eigh's own error
    reached 18.4 eps m (n = 45) over 3,000 random tridiagonals like those
    below, so it is held to 32 eps m."""
    T = tridiagonal(a, b)
    top = np.linalg.eigh(T)[0]
    m = np.abs(top).max()
    theta, y = spectral._tridiagonal_top(list(a), list(b), upper)
    y = np.array(y)
    assert positive_definite(a, b, theta + 4 * EPS * m)
    assert not positive_definite(a, b, theta - 4 * EPS * m)
    assert abs(theta - top[-1]) <= 32 * EPS * m
    assert abs(np.linalg.norm(y) - 1) <= 1e-14
    assert np.linalg.norm(T @ y - theta * y) <= 1e-13 * max(1.0, abs(theta))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1), signed=st.booleans(),
       off=st.sampled_from(["normal", "tiny", "zero", "mixed"]),
       start=st.sampled_from([-1.0, 0.0, 1e-9, 1e-3, 1.0]))
def test_tridiagonal_top_matches_eigh(n, seed, signed, off, start):
    # a signed or nonnegative diagonal, off-diagonals of order 1, 1e-8..1e-20
    # or 0, or a mix, and a start from below the top to one norm above it
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) if signed else np.abs(rng.standard_normal(n))
    b = rng.standard_normal(n - 1)
    tiny = b * 10.0 ** -rng.uniform(8, 20, n - 1)
    kind = {"normal": 0, "tiny": 1, "zero": 2, "mixed": rng.integers(0, 3, n - 1)}[off]
    b = np.choose(kind, [b, tiny, 0 * b])
    top = np.linalg.eigvalsh(tridiagonal(a, b))
    check_top(a, b, top[-1] + start * np.abs(top).max())


def test_tridiagonal_top_of_the_path_graph(monkeypatch):
    # chi_1 on Z: the sphere quotient of radius L is the path on 2L + 1
    # vertices folded at 0, whose top is 2 cos(pi / (2L + 2)); from the
    # limit 2, a few passes of O(L) each
    passes = counted_sturm(monkeypatch)
    for L in (1, 2, 10, 100, 300, 1000):
        bands = dict(spectral._radial_bands(1, [0, 1], L))
        passes.clear()
        theta, y = spectral._tridiagonal_top([0.0] * (L + 1), bands[1].tolist(), 2.0)
        assert abs(theta - 2 * math.cos(math.pi / (2 * L + 2))) <= 4 * EPS * 2
        assert len(passes) <= 8
        if L <= 300:
            check_top(np.zeros(L + 1), bands[1], 2.0)


def test_tridiagonal_top_of_a_near_double_top(monkeypatch):
    # two copies of one block joined by 1e-17: the top is double to rounding,
    # so Newton halves its distance each pass from just above it
    passes = counted_sturm(monkeypatch)
    rng = np.random.default_rng(7)
    block_a, block_b = rng.standard_normal(20), np.abs(rng.standard_normal(19))
    a = np.concatenate([block_a, block_a])
    b = np.concatenate([block_b, [1e-17], block_b])
    top = np.linalg.eigvalsh(tridiagonal(a, b))
    assert top[-1] - top[-2] <= 4 * EPS * top[-1]
    for rel, most in ((1e-8, 40), (1e-3, 60)):
        passes.clear()
        check_top(a, b, top[-1] * (1 + rel))
        assert len(passes) <= most


def test_tridiagonal_top_near_the_float_limit(f2):
    # squares of these off-diagonals overflow unscaled, and 1.7e308 would
    # take the scale 2^1024; the sphere quotient of 1e300 chi_1 has a finite
    # residual, where a dense solve's norm of S y - theta y overflows
    for c in (1e200, 1e300, 8e307):
        theta, _ = spectral._tridiagonal_top([0.0] * 3, [c, c], 2 * c)
        assert theta == pytest.approx(math.sqrt(2) * c, rel=4 * EPS)
    theta, _ = spectral._tridiagonal_top([1.7e308, 0.0], [1.0], 1.7e308)
    assert theta == pytest.approx(1.7e308, rel=4 * EPS)
    chi = sphere_indicator(f2, 1)
    est = reduced_norm(1e300 * chi, 8)
    assert est.converged and est.value == pytest.approx(1e300 * reduced_norm(chi, 8).value,
                                                        rel=4 * EPS)


def test_tridiagonal_quotient_matches_dense_and_skips_it(monkeypatch):
    # profiles of length <= 2 (chi_0, chi_1 and their sums) give a
    # tridiagonal S, solved without _dense; each rung's value is the top of
    # the same block by eigh within 4 eps, and its residual is |S y - theta y|
    dense = []
    monkeypatch.setattr(spectral, "_dense", lambda *args: dense.append(args))
    cases = [case for case in QUOTIENT_CASES if len(case[1]) <= 2]
    cases += [(1, [0, 1], 400), (2, [0.5, 1.5], 8), (3, [2.0, 0.3], 5), (2, [3.0], 6)]
    for rank, coeffs, L in cases:
        f = radial_function(etale.group_model(etale.FreeGroup(rank)), coeffs)
        est = reduced_norm(f, L)
        assert est.method == "sphere_quotient" and est.converged
        for Lk, value, iterations, residual, converged in est.trace:
            S = np.zeros((Lk + 1, Lk + 1))
            for d, w in spectral._radial_bands(rank, coeffs, Lk):
                S += np.diag(w, d) + (np.diag(w, -d) if d else 0)
            top = np.linalg.eigh(S)[0][-1]
            assert abs(value - top) <= 4 * EPS * top
            assert residual <= 1e-13 * max(1.0, value) and converged and iterations == 0
    assert dense == []


# (L, value, iterations, converged) of each rung at tol 1e-10 and seed 0 when
# each check takes the Ritz pair of largest modulus from a dense eigh of T_k
LANCZOS_ENDS = {
    "-chi1": [[(4, 3.0889126347550055, 14, True)],
              [(4, 3.0889126347550055, 14, True), (5, 3.1833414224505954, 18, True)],
              [(4, 3.0889126347550055, 14, True), (6, 3.24544767877875, 26, True)]],
    "shifted": [[(4, 4.143232436379921, 46, True)],
                [(4, 4.143232436379921, 46, True), (5, 4.370397443673991, 55, True)],
                [(4, 4.143232436379921, 46, True), (6, 4.52274742823752, 66, True)]],
    "signed": [[(4, 3.524848813071828, 46, True)],
               [(4, 3.524848813071828, 46, True), (5, 3.638481221630886, 60, True)],
               [(4, 3.524848813071828, 46, True), (6, 3.7113722391854194, 79, True)]],
}


def test_lanczos_solves_the_dominant_end(f2):
    # -chi_1 has a symmetric spectrum.  So does g, as the character a -> 1,
    # b -> -1 negates every coefficient; g - 1e-9 chi_0 shifts it, and its
    # bottom end dominates by 2e-9.  At L = 4 eigvalsh first finds the top end
    # larger, and only the other-end Sturm pass sees the bottom overtake it.
    # The signed f has no such symmetry
    def of(entries):
        return CcFunction(f2, {GroupoidElement(0, f2.backend.word_from_json(w)): v
                               for w, v in entries.items()})

    g = of({"b A": 1.66, "a B": 1.66, "b": -1.02, "B": -1.02, "B a": 0.38, "A b": 0.38})
    fs = {"-chi1": -sphere_indicator(f2, 1), "shifted": g - 1e-9 * unit_indicator(f2),
          "signed": of({"a": 0.9, "A": 0.9, "b": -1.1, "B": -1.1, "a b": 0.7, "B A": 0.7,
                        "b a": -0.6, "A B": -0.6})}
    for name, f in fs.items():
        for L, expect in zip((4, 5, 6), LANCZOS_ENDS[name]):
            trace = reduced_norm(f, L).trace
            assert [(r[0], r[2], r[4]) for r in trace] == [(r[0], r[2], r[3]) for r in expect]
            for row, (_, value, _, _) in zip(trace, expect):
                assert row[1] == pytest.approx(value, rel=1e-13, abs=0)


def test_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, etale; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
