"""Fiber geometry: word metric, growth reports, hyperbolicity, band check."""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import random_function

import etale
from etale import (BudgetError, GroupoidElement, NonComposableError,
                   PreconditionError, band_check, distance_matrix,
                   fiber_distance, growth_stats, hyperbolicity_delta,
                   overlap_constant, sphere_indicator)
from etale.algebra import CcFunction, convolve
from etale.metric import _four_point_defect

MODELS = Path(__file__).resolve().parent.parent / "models"


def oracle_four_point(D):
    """Brute-force largest defect: top pair-sum minus second, all quadruples."""
    n = len(D)
    best = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    sums = sorted((D[a][b] + D[c][d],
                                   D[a][c] + D[b][d],
                                   D[a][d] + D[b][c]))
                    best = max(best, sums[2] - sums[1])
    return best


def test_fiber_distance_basic(f2):
    x = GroupoidElement(0, (1,))
    y = GroupoidElement(0, (1, 2))
    assert fiber_distance(f2, x, y) == 1
    assert fiber_distance(f2, x, x) == 0
    assert fiber_distance(f2, y, x) == 1


def test_fiber_distance_needs_common_fiber(f2_32):
    x = GroupoidElement(0, (1,))
    y = GroupoidElement(1, (1,))
    with pytest.raises(NonComposableError):
        fiber_distance(f2_32, x, y)


def test_left_invariance_and_triangle(f2_32):
    rng = np.random.default_rng(23)
    u = 0
    fiber = f2_32.ball(u, 3)
    for _ in range(50):
        x, y, w = (fiber[i] for i in rng.choice(len(fiber), size=3))
        assert fiber_distance(f2_32, x, y) <= (
            fiber_distance(f2_32, x, w) + fiber_distance(f2_32, w, y))
    z = GroupoidElement(5, (2,))
    v = f2_32.source_unit(z)
    for _ in range(20):
        i, j = rng.choice(len(fiber), size=2)
        x, y = fiber[i], fiber[j]
        xv = GroupoidElement(v, x.word)
        yv = GroupoidElement(v, y.word)
        assert fiber_distance(f2_32, f2_32.compose(z, xv), f2_32.compose(z, yv)) \
            == fiber_distance(f2_32, xv, yv)


def test_growth_free_rank_two(f2):
    rep = growth_stats(f2, 8)
    assert rep.sphere_counts == [1, 4, 12, 36, 108, 324, 972, 2916, 8748]
    assert rep.ball_counts[3] == 53
    assert rep.envelope_r == pytest.approx(4.0)
    assert rep.ratio_stabilized and rep.sphere_ratio == 3.0
    assert not rep.saturated and not rep.subexponential
    assert rep.certified_upper and rep.certified_lower
    assert 2.9 < rep.fit_r < 3.3
    # envelope really dominates, lower fit really minorizes
    for k in range(1, 9):
        assert rep.sphere_counts[k] <= rep.envelope_r ** k * (1 + 1e-9)
        assert rep.ball_counts[k] >= rep.fit_d * rep.fit_r ** k * (1 - 1e-9)


def test_growth_line_and_finite(z, z6):
    line = growth_stats(z, 8)
    assert line.sphere_ratio == 1.0 and line.subexponential
    assert not line.saturated
    fin = growth_stats(z6, 8)
    assert fin.saturated and fin.subexponential
    assert fin.sphere_counts[:5] == [1, 2, 2, 1, 0]
    assert fin.ball_counts[-1] == 6
    rows = fin.csv_rows()
    assert rows[0] == ("k", "sup_sphere", "inf_ball")
    assert len(rows) == 10


def test_growth_envelopes_hold_exactly(f2, z, z6):
    # in rational arithmetic on the reported floats; the lower envelope of z
    # at K = 8 and 12 and of z6 at K = 12, and the upper one of F_2 from
    # k_min = 3, meet a count to within an ulp or two
    for model, K, k_min in ((f2, 8, 1), (f2, 12, 1), (f2, 40, 3), (z, 8, 1), (z, 12, 1),
                            (z6, 8, 1), (z6, 12, 1), (z6, 8, 3)):
        rep = growth_stats(model, K, k_min)
        assert rep.certified_upper and rep.certified_lower
        for k in range(k_min, K + 1):
            assert rep.sphere_counts[k] <= Fraction(rep.envelope_r) ** k
            assert rep.ball_counts[k] >= Fraction(rep.fit_d) * Fraction(rep.fit_r) ** k


def test_growth_argument_validation(f2):
    with pytest.raises(ValueError):
        growth_stats(f2, 4, k_min=4)
    with pytest.raises(ValueError):
        growth_stats(f2, 4, k_min=0)


def test_growth_refuses_a_range_past_the_diameter(z6):
    # z6's last nonempty sphere is at radius 3: from k_min = 4 there is no
    # sphere to fit an envelope to
    assert growth_stats(z6, 8, k_min=3).envelope_r == 1.0
    with pytest.raises(etale.GrowthHypothesisError, match="no sphere of radius 4..8 is nonempty"):
        growth_stats(z6, 8, k_min=4)


def test_distance_matrix(f2):
    pts = f2.ball(0, 2)
    D = distance_matrix(f2, pts)
    assert D.shape == (17, 17)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)
    assert D[0, 1] == 1  # identity to a generator


def test_distance_matrix_refuses_what_int16_cannot_hold(z):
    # length(a^-20000 A^20000) = 40000 would wrap to -25536 in int16
    far = [GroupoidElement(0, (1,) * 20_000), GroupoidElement(0, (-1,) * 20_000)]
    with pytest.raises(ValueError, match="16383"):
        distance_matrix(z, far)


def test_delta_tree_fiber_is_zero(f2):
    est = hyperbolicity_delta(f2, 0, 2)
    assert est.delta == 0.0
    assert est.n_points == 17
    D = distance_matrix(f2, f2.ball(0, 2)).tolist()
    assert oracle_four_point(D) == 0


def test_delta_cycle_against_oracle(z6):
    for radius in (2, 3):
        est = hyperbolicity_delta(z6, 0, radius)
        D = distance_matrix(z6, z6.ball(0, radius)).tolist()
        assert est.delta == oracle_four_point(D)
    assert hyperbolicity_delta(z6, 0, 3).delta == 2.0


def test_delta_monotone_in_radius(z6):
    vals = [hyperbolicity_delta(z6, 0, r).delta for r in (1, 2, 3)]
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        hyperbolicity_delta(z6, 0, -1)


def ordered_scan(D):
    """The four-point scan over ordered index tuples ``i <= j`` and all
    ``k, l``, in int32: n^2 * n(n+1)/2 tuples."""
    D = np.asarray(D, dtype=np.int32)
    best = 0
    for i in range(len(D)):
        s_ab = D[i, i:][:, None, None] + D[None, :, :]
        s_ac = D[i][None, :, None] + D[i:][:, None, :]
        s_ad = D[i][None, None, :] + D[i:][:, :, None]
        best = max(best, int((s_ab - np.maximum(s_ac, s_ad)).max()))
    return best


def _graph_metric(rng, n, extra):
    """Shortest-path metric of a seeded random connected graph: a random
    spanning tree plus ``extra`` random edges."""
    D = np.full((n, n), n, dtype=np.int64)
    np.fill_diagonal(D, 0)
    for v in range(1, n):
        u = int(rng.integers(v))
        D[u, v] = D[v, u] = 1
    for u, v in rng.integers(n, size=(extra, 2)):
        if u != v:
            D[u, v] = D[v, u] = 1
    for w in range(n):  # Floyd-Warshall
        D = np.minimum(D, D[:, w, None] + D[w, None, :])
    return D.astype(np.int16)


def _cyclic_model(order, generators=(1,)):
    table = (np.arange(order)[:, None] + np.arange(order)) % order
    return etale.group_model(etale.FiniteGroup(table, list(generators)))


def _defect_at(D, w):
    """Largest ``min(P[x, z], P[y, z]) - P[x, y]`` for ``P = 2(x|y)_w``:
    the four-point defect over the quadruples that contain ``w``."""
    P = D[w, :, None] + D[w] - D
    return int((np.minimum(P[:, None, :], P[None, :, :]) - P[:, :, None]).max())


# Cayley balls whose defect at the identity is below the ball's defect:
# (radius, defect at the identity, defect)
BELOW_THE_IDENTITY = {"z8": (3, 2, 4), "z6_gens12": (1, 1, 2)}


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3",
                                  "z8", "z6_gens12"])
def test_scan_matches_ordered_scan_on_models(name, s3):
    model = {"s3": s3, "z8": _cyclic_model(8), "z6_gens12": _cyclic_model(6, (1, 2))}.get(name)
    model = model or etale.load_model(MODELS / f"{name}.json")
    below = BELOW_THE_IDENTITY.get(name)
    for radius in range(4):
        D = distance_matrix(model, model.ball(0, radius))
        best = ordered_scan(D)
        assert _four_point_defect(D) == best
        assert hyperbolicity_delta(model, 0, radius).delta == max(0, best)
        if below and below[0] == radius:
            assert (_defect_at(D, 0), best) == below[1:]


def test_scan_matches_ordered_scan_on_graphs():
    rng = np.random.default_rng(31)
    deltas = []
    for n, extra in ((1, 0), (2, 0), (5, 2), (12, 0), (12, 4), (20, 6), (30, 3), (30, 15)):
        for _ in range(3):
            D = _graph_metric(rng, n, extra)
            deltas.append(ordered_scan(D))
            assert _four_point_defect(D) == deltas[-1]
    assert max(deltas) >= 2 and 0 in deltas


@pytest.mark.parametrize("order,step,diameter", [(126, 3, 63), (130, 5, 65)])
def test_scan_on_both_sides_of_the_int8_switch(order, step, diameter):
    # 2 * 63 = 126 fits int8 and 2 * 65 = 130 does not; the antipodal points
    # are kept, so the largest pair sums reach 2 * diameter
    model = _cyclic_model(order)
    D = distance_matrix(model, [GroupoidElement(0, w) for w in range(0, order, step)])
    assert D.max() == diameter
    best = ordered_scan(D)
    assert best >= diameter - step
    assert _four_point_defect(D) == best


def test_delta_budget():
    # on a finite backend the budget is charged the index tuples scanned, i
    # the smallest: (n(n+1)/2)^2 for the n = 200 points of Z/200 at radius 100
    with pytest.raises(BudgetError) as err:
        hyperbolicity_delta(_cyclic_model(200), 0, 100)
    assert err.value.required == 404_010_000
    # Z/20 at radius 10 is 20 points and 210^2 tuples: scanned at that budget
    z20 = _cyclic_model(20)
    with pytest.raises(BudgetError, match="needs 44100 quadruples, budget is 44099"):
        hyperbolicity_delta(z20, 0, 10, quad_budget=44_099)
    est = hyperbolicity_delta(z20, 0, 10, quad_budget=44_100)
    assert (est.n_points, est.quadruples) == (20, 44_100)
    assert est.delta == ordered_scan(distance_matrix(z20, z20.ball(0, 10)))


def test_delta_on_a_free_backend_is_zero_by_theorem(f2, monkeypatch):
    # a tree is 0-hyperbolic: no ball, distance matrix, scan or quadruple
    # charge, and the default quad_budget no longer bounds the radius
    calls = []
    for name in ("_four_point_defect", "distance_matrix", "charge"):
        monkeypatch.setattr(etale.metric, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(etale.GroupoidModel, "ball", lambda *args: calls.append("ball"))
    est = hyperbolicity_delta(f2, 0, 4)
    assert (est.delta, est.n_points, est.quadruples) == (0.0, 161, 170_067_681)
    f3 = etale.group_model(etale.FreeGroup(3))
    assert hyperbolicity_delta(f3, 0, 3).quadruples == 308_986_084
    assert calls == []
    # the radius is still admitted by the ball's element charge
    with pytest.raises(BudgetError, match="ball of radius 4 needs 161 elements, budget is 160"):
        hyperbolicity_delta(f2, 0, 4, budget=160)
    with pytest.raises(etale.ModelError, match="unit 1 out of range"):
        hyperbolicity_delta(f2, 1, 2)


def test_overlap_constant(f2, z, z6):
    assert overlap_constant(f2, 0.0) == 5
    assert overlap_constant(z, 0.0) == 3
    assert overlap_constant(z6, 2.0) == 6
    with pytest.raises(ValueError):
        overlap_constant(f2, -1.0)


def test_band_check_passes_with_overlap_constant(f2):
    rng = np.random.default_rng(29)
    f = random_function(f2, rng, 2, 10).length_slice(2)
    g = sphere_indicator(f2, 1)
    C = overlap_constant(f2, 0.0)
    rep = band_check(f, g, 2, 1, 0, C)
    assert rep.passed
    assert rep.band == (1, 3)
    assert rep.outside_mass == 0.0
    assert [r[0] for r in rep.rows] == [1, 2, 3]
    assert all(r[3] for r in rep.rows)


def test_band_check_parity_gap(z):
    f = sphere_indicator(z, 2)
    g = sphere_indicator(z, 1)
    rep = band_check(f, g, 2, 1, 0, 3.0)
    assert rep.passed
    by_m = {r[0]: r[1] for r in rep.rows}
    assert by_m[2] == 0.0  # odd/even parity kills the middle slice
    assert by_m[1] > 0 and by_m[3] > 0


def test_band_check_preconditions(f2):
    chi2 = sphere_indicator(f2, 2)
    chi1 = sphere_indicator(f2, 1)
    with pytest.raises(PreconditionError):
        band_check(chi2, chi1, 3, 1, 0, 5.0)  # f not on sphere 3
    with pytest.raises(PreconditionError):
        band_check(chi2, chi1, 2, 2, 0, 5.0)  # g not on sphere 2
    with pytest.raises(PreconditionError):
        band_check(chi2, 2.0 * chi1, 2, 1, 0, 5.0)  # g not bounded by 1


def test_band_check_fail_path(f2):
    rep = band_check(sphere_indicator(f2, 2), sphere_indicator(f2, 1),
                     2, 1, 0, 0.01)
    assert not rep.passed
    assert any(not r[3] for r in rep.rows)
    assert rep.outside_mass == 0.0


def test_band_check_charges_pair_products_first(f2, monkeypatch):
    # 12 words of sphere 2 times 4 of sphere 1 on one unit: 48 products
    f, g = sphere_indicator(f2, 2), sphere_indicator(f2, 1)
    assert band_check(f, g, 2, 1, 0, 5.0, budget=48).passed
    products = []
    monkeypatch.setattr(etale.FreeGroup, "mul", lambda self, a, b: products.append((a, b)))
    with pytest.raises(BudgetError, match=r"^convolution needs 48 pair products, budget is 47$"):
        band_check(f, g, 2, 1, 0, 5.0, budget=47)
    assert products == []


def _convolve_masses(f, g, k, n, u):
    """The band masses and outside mass of ``convolve(f, g)``, read in its order."""
    model, lo, hi = f.model, abs(k - n), k + n
    outside, slices = [], {m: [] for m in range(lo, hi + 1)}
    for x, v in convolve(f, g).items():
        m = model.length(x)
        if not lo <= m <= hi:
            outside.append(abs(v))
        elif x.unit == u:
            slices[m].append(abs(v))
    return {m: sum(vals) for m, vals in slices.items()}, sum(outside)


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "f3", "s3"])
def test_band_check_products_on_rows_match_convolve(name, s3):
    # f * g summed on tree rows, against convolve's sparse product: every
    # mass bit for bit, on random complex functions of the spheres, with
    # sampled and full supports, zeros and cancelling pairs
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    rng = np.random.default_rng(47)
    for k, n in ((0, 0), (1, 0), (0, 2), (2, 1), (3, 1), (1, 3), (2, 2)):
        if model.sphere_count(k) == 0 or model.sphere_count(n) == 0:
            continue
        f_pts = [(u, w) for u in range(model.units) for w in model.backend.ball_words(k)
                 if model.backend.length(w) == k]
        g_pts = [(u, w) for u in range(model.units) for w in model.backend.ball_words(n)
                 if model.backend.length(w) == n]
        for trial in range(3):
            keep = [p for p in f_pts if rng.random() < 0.7] or f_pts[:1]
            f = CcFunction(model, {p: complex(*rng.uniform(-1, 1, 2)) for p in keep})
            vals = rng.uniform(-0.7, 0.7, len(g_pts)) + 1j * rng.uniform(-0.7, 0.7, len(g_pts))
            if trial == 2:  # values of +-1 and +-0.5, so products cancel to 0 and tie
                f = CcFunction(model, {p: rng.choice([-1.0, 1.0]) for p in keep})
                vals = np.sign(vals.real) * 0.5
            g = CcFunction(model, dict(zip(g_pts, vals)))
            for u in {0, model.units - 1}:
                rep = band_check(f, g, k, n, u, 2.0)
                masses, outside = _convolve_masses(f, g, k, n, u)
                assert [(m, mass) for m, mass, *_ in rep.rows] == list(masses.items())
                assert rep.outside_mass == outside == 0.0
