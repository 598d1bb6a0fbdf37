"""Kernels, Gram positivity, and the induced inner-product structure."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

import etale
from etale import (ExpLengthKernel, GroupoidElement, HaagerupKernel,
                   KernelDomainError, KernelPositivityError, ModelError,
                   PreconditionError, TableKernel, distance_matrix, gns_build,
                   gns_isometry_defect, gram_matrix, haagerup_witness_check,
                   matrix_coeff_recovery, pointwise_product_check, psd_check)
from etale.cli import _random_draws
from etale.kernels import ball_spectrum, gram_stack, psd_results

MODELS = Path(__file__).resolve().parent.parent / "models"


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
    # entries are read as CcFunction reads them: pairs add up, as JSON entries do
    pairs = TableKernel(f2, [((0, ()), 0.25), (a, 1j), ((0, ()), 0.75)])
    assert pairs.table == kern.table


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
    with pytest.raises(ValueError):
        gns_build(z, ExpLengthKernel(0.5), 0, -1)


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


def _reference_gns(model, kernel, x, k, grams):
    """The isometry defect and matrix coefficient through the 0/1 matrix M
    of left translation by x from the radius-k source ball into the
    radius-(k + |x|) range ball, and the Gram matrix of the whole range
    ball (cached in ``grams``)."""
    domain = model.ball(model.source_unit(x), k)
    radius = k + model.length(x)
    codomain = model.ball(x.unit, radius)
    if (x.unit, radius) not in grams:
        grams[(x.unit, radius)] = gram_matrix(model, kernel, codomain)
    g_rng = grams[(x.unit, radius)]
    index = {g: i for i, g in enumerate(codomain)}
    M = np.zeros((len(codomain), len(domain)))
    for col, a in enumerate(domain):
        M[index[model.compose(x, a)], col] = 1.0
    defect = M.conj().T @ g_rng @ M - gram_matrix(model, kernel, domain)
    worst = float(np.max(np.abs(defect))) if defect.size else 0.0
    coeff = complex((g_rng @ M[:, 0])[0]) if domain else None
    return worst, coeff


def _random_table(model, rng, radius=2, stated=8):
    """A Hermitian (not necessarily positive) table kernel with random
    entries on the radius-``radius`` balls, stated up to ``stated`` so the
    reference range balls stay inside its domain."""
    entries = {}
    for u in range(model.units):
        for g in model.ball(u, radius):
            gi = model.inverse(g)
            if gi in entries:
                continue
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            entries[g] = z.real if gi == g else z
    return TableKernel(model, entries, radius=stated)


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3"])
def test_gns_checks_match_rep_matrix_oracle(name, s3):
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    kernels = (ExpLengthKernel(0.6), HaagerupKernel(2.5),
               _random_table(model, np.random.default_rng(23)))
    xs = [x for u in range(model.units) for x in model.sphere(u, 1)]
    xs += [x for u in (0, model.units - 1) for x in model.sphere(u, 2)[:3]]
    for kern in kernels:
        grams = {}
        for x in xs:
            for k in (-1, 0, 1, 2):
                defect, coeff = _reference_gns(model, kern, x, k, grams)
                assert gns_isometry_defect(model, kern, x, k) == defect
                if model.length(x) <= k:
                    assert matrix_coeff_recovery(model, kern, x, k) == coeff
                else:
                    with pytest.raises(PreconditionError):
                        matrix_coeff_recovery(model, kern, x, k)


def _loop_distance_matrix(model, points):
    """``length(x_i^-1 x_j)`` by one backend product per pair."""
    backend = model.backend
    D = np.zeros((len(points), len(points)), dtype=np.int16)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            D[i, j] = backend.length(backend.mul(backend.inv(x.word), y.word))
    return D


def _loop_gram(model, kernel, elements):
    """``F(x_i^-1 x_j)`` by one kernel evaluation per pair."""
    G = np.zeros((len(elements), len(elements)), dtype=complex)
    for i, x in enumerate(elements):
        xi = model.inverse(x)
        for j, y in enumerate(elements):
            G[i, j] = kernel.evaluate(model, model.compose(xi, y))
    return G


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3"])
def test_pair_tables_match_per_pair_loops(name, s3):
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    rng = np.random.default_rng(37)
    kernels = (ExpLengthKernel(0.6), HaagerupKernel(2.5), _random_table(model, rng))
    last = model.units - 1
    tuples = [model.ball(u, k) for u in (0, last) for k in range(4)]
    words = model.backend.ball_words(4)
    tuples += [[GroupoidElement(u, words[i]) for i in idx]
               for u, idx in _random_draws(rng, model.units, 20, 12, len(words))]
    xs = model.sphere(last, 1) + model.sphere(0, 2)[:3]
    for x in xs:
        tuples.append([model.compose(x, a) for a in model.ball(model.source_unit(x), 2)])
    tuples += [[g] for g in model.ball(last, 2)]
    for elements in tuples:
        D = distance_matrix(model, elements)
        want = _loop_distance_matrix(model, elements)
        assert D.dtype == want.dtype and np.array_equal(D, want)
        for kern in kernels:
            G = gram_matrix(model, kern, elements)
            want = _loop_gram(model, kern, elements)
            assert G.dtype == want.dtype and np.array_equal(G, want)
    # the same tuples stacked by size, each matrix against its own loop and
    # each stacked min_eig against the tuple's own psd_check, bit for bit
    stacks = [[t for t in tuples if len(t) == size] for size in sorted({len(t) for t in tuples})]
    long = [[GroupoidElement(0, (x,) * n) for x, n in
             ((1, 0), (1, 255), (1, 256), (1, 300), (1, 301), (-1, 257))]]
    if name == "z":  # common prefixes past 255 letters overflow a byte counter
        stacks.append(long)
    for stack in stacks:
        units, words = [t[0].unit for t in stack], [[g.word for g in t] for t in stack]
        lengths = model.backend.pair_lengths(words)
        assert lengths.shape == (len(stack), len(words[0]), len(words[0]))
        for t, D in zip(stack, lengths):
            assert np.array_equal(D, _loop_distance_matrix(model, t))
        for kern in kernels:
            if stack is long and isinstance(kern, TableKernel):
                continue  # outside the table's stated radius
            grams = gram_stack(model, kern, units, words)
            for t, G, res in zip(stack, grams, psd_results(grams)):
                assert np.array_equal(G, _loop_gram(model, kern, t))
                assert res == psd_check(model, kern, t)


@pytest.mark.parametrize("rank", [127, 128, 129, 32768])
def test_pair_lengths_hold_the_largest_letter(rank):
    # the letters ±rank sit at the edge of a signed type: int8 holds -128 but not 128
    backend = etale.FreeGroup(rank)
    words = [(), (1,), (rank,), (-rank,), (rank, rank), (-rank, 1), (rank, -1), (1, rank)]
    want = [[backend.length(backend.mul(backend.inv(a), b)) for b in words] for a in words]
    assert np.array_equal(backend.pair_lengths([words, words[::-1]]),
                          [want, [row[::-1] for row in want[::-1]]])
    if rank == 128:
        model = etale.group_model(backend)
        ball, kern = model.ball(0, 1), ExpLengthKernel(0.6)
        assert np.array_equal(distance_matrix(model, ball), _loop_distance_matrix(model, ball))
        assert np.array_equal(gram_matrix(model, kern, ball), _loop_gram(model, kern, ball))


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "f3", "s3"])
def test_index_form_matches_the_words(name, s3):
    # pair lengths of ball-tree rows (on a free backend their distance in the
    # tree) against one backend product per pair at every radius <= 4, and the
    # index form of gram_stack against its word form, bit for bit
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    rng = np.random.default_rng(43)
    kernels = (ExpLengthKernel(0.6), HaagerupKernel(2.5), _random_table(model, rng))
    for L in range(5):
        tree = model.ball_tree(L)
        ball = model.ball(0, L)
        lengths = model.backend.row_pair_lengths(tree[0], np.arange(len(ball))[None])
        assert np.array_equal(lengths[0], _loop_distance_matrix(model, ball))
        draws = _random_draws(rng, model.units, 6, 5, len(ball))
        size = len(draws[0][1])
        picks = [(u, idx) for u, idx in draws if len(idx) == size]
        rows = np.array([idx for _, idx in picks])
        words = [[ball[i].word for i in idx] for _, idx in picks]
        for kern in kernels:
            got = gram_stack(model, kern, [u for u, _ in picks], rows, tree)
            assert np.array_equal(got, gram_stack(model, kern, [u for u, _ in picks], words))


@pytest.mark.parametrize("rank,top", [(1, 20), (2, 5), (3, 3)])
def test_radial_gram_spectra_from_blocks(rank, top):
    # on a free backend the ball Gram of a radial kernel is the sphere quotient
    # S and the root-stabilizer blocks of T, each repeated by its
    # multiplicity: every eigenvalue of the dense Gram, within its backward
    # error, and the same count below null_tol; the rank-one Gram of
    # exp_length 1.0 has n - 1 null directions
    model = etale.group_model(etale.FreeGroup(rank))
    for kern in (ExpLengthKernel(0.2), ExpLengthKernel(0.5), ExpLengthKernel(1.0),
                 HaagerupKernel(2.0)):
        for k in range(top + 1):
            got = ball_spectrum(model, kern, 0, k)
            G = gram_matrix(model, kern, model.ball(0, k))
            want = np.linalg.eigvalsh(G)
            assert got.shape == want.shape == (model.ball_count(k),)
            assert np.abs(got - want).max() <= 8 * len(G) * 2.0 ** -52 * np.abs(want).max()
            assert np.sum(got < 1e-10) == np.sum(want < 1e-10)
            if kern == ExpLengthKernel(1.0):
                assert np.sum(got < 1e-10) == len(G) - 1
    data = gns_build(model, HaagerupKernel(2.0), 0, 2)
    assert data.dim == model.ball_count(2) and data.gram.shape == (data.dim,) * 2


def test_dense_gram_is_charged_before_it_is_built(f2, z6, monkeypatch):
    # a table kernel, or a finite backend, keeps the dense Gram: its n^2
    # entries are charged first, so F2's k = 8 ball (13,121 elements, within
    # the element budget) is refused with no Gram built
    kern = TableKernel(f2, {f2.unit_element(0): 1.0}, radius=16)
    monkeypatch.setattr(etale.kernels, "gram_matrix", None)
    with pytest.raises(etale.BudgetError, match="Gram matrix of radius 8 needs 172160641 "
                                                "entries, budget is 5000000"):
        gns_build(f2, kern, 0, 8)
    with pytest.raises(etale.BudgetError, match="Gram matrix of radius 1 needs 9 entries"):
        ball_spectrum(z6, ExpLengthKernel(0.5), 0, 1, budget=8)
    # a radial kernel on a free backend builds none at any radius
    eigenvalues = ball_spectrum(f2, HaagerupKernel(2.0), 0, 8)
    assert len(eigenvalues) == 13121 and eigenvalues[0] > 0


def test_isometry_defect_sees_a_dropped_letter(f2, monkeypatch):
    # left translation cancels in F((x a)^-1 x b), so on a correct model the
    # defect is exactly zero for every kernel; a translation that drops the
    # last letter, the tree parent of each translate's row, must show, with
    # the same value as the oracle whose compose drops it
    kernels = (ExpLengthKernel(0.5), HaagerupKernel(2.5),
               _random_table(f2, np.random.default_rng(29)))
    xs = [GroupoidElement(0, (1,)), GroupoidElement(0, (1, -2))]
    for kern in kernels:
        assert all(gns_isometry_defect(f2, kern, x, 1) == 0.0 for x in xs)

    def compose_dropping_last_letter(self, g, h):
        return GroupoidElement(g.unit, self.backend.mul(g.word, h.word)[:-1])

    translate = etale.kernels._translate
    want = {}
    with monkeypatch.context() as patch:
        patch.setattr(etale.GroupoidModel, "compose", compose_dropping_last_letter)
        for kern in kernels:
            for x in xs:
                want[kern, x] = _reference_gns(f2, kern, x, 1, {})[0]
    monkeypatch.setattr(etale.kernels, "_translate",
                        lambda model, tree, x, n: tree[0][translate(model, tree, x, n)])
    for kern in kernels:
        for x in xs:
            defect = gns_isometry_defect(f2, kern, x, 1)
            assert defect > 0.1
            assert defect == want[kern, x]


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3"])
def test_isometry_defect_walks_one_tree(name, s3, monkeypatch):
    # each defect builds one ball tree, of radius k + |x|, and its Grams from
    # the rows walked on it: no ball is enumerated and no product formed, and
    # the value is the oracle's, bit for bit
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    kernels = (ExpLengthKernel(0.6), HaagerupKernel(2.5),
               _random_table(model, np.random.default_rng(31)))
    xs = model.sphere(0, 1) + model.sphere(model.units - 1, 2)[:2]
    want = {(kern, x, k): _reference_gns(model, kern, x, k, {})[0]
            for kern in kernels for x in xs for k in (0, 1, 2)}
    trees = []
    tree = etale.GroupoidModel.ball_tree
    monkeypatch.setattr(etale.GroupoidModel, "ball_tree",
                        lambda self, L, budget=None: trees.append(L) or tree(self, L, budget))
    for banned in ("ball", "sphere", "compose"):
        monkeypatch.setattr(etale.GroupoidModel, banned, None)
    for (kern, x, k), defect in want.items():
        trees.clear()
        assert gns_isometry_defect(model, kern, x, k) == defect
        assert trees == [k + model.length(x)]


def test_isometry_defect_is_charged_before_its_tree(f2, monkeypatch):
    # the two Grams of the k = 8 ball, 2 x 13,121^2 entries, are refused
    # before the radius-9 tree is built
    monkeypatch.setattr(etale.GroupoidModel, "ball_tree", None)
    with pytest.raises(etale.BudgetError, match="isometry defect of radius 8 needs 344321282 "
                                                "entries, budget is 5000000"):
        gns_isometry_defect(f2, ExpLengthKernel(0.5), GroupoidElement(0, (1,)), 8)


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
    assert all(r["spot_checked"] for r in rep.vanishing_rows)


def test_haagerup_witness_bounded_model(z6):
    rep = haagerup_witness_check(z6, [1, 2], [1, 2, 8], [0.01])
    assert rep.passed
    devs = {(r["n"], r["k"]): r["expected"] for r in rep.deviation_rows}
    # diameter 3 caps the deviation
    assert devs[(1.0, 8)] == pytest.approx(1 - math.exp(-3.0))
    assert all(r["vacuous"] for r in rep.vanishing_rows)


def _reference_haagerup(model, n_list, k_list, eps_list, spot_budget=200_000):
    """The witness check by enumeration: the kernel evaluated on every unit,
    on every element of each radius-k ball, and on every element of the
    sphere at ``radius + 1`` when its ball has at most ``spot_budget``
    elements."""
    n_list = sorted(float(n) for n in n_list)
    max_radius = model.backend.max_radius
    unit_rows, deviation_rows, monotone_rows, vanishing_rows = [], [], [], []
    sups = {}
    for n in n_list:
        kern = HaagerupKernel(n)
        unit_rows.append({"n": n, "ok": all(kern.evaluate(model, model.unit_element(u)) == 1.0
                                            for u in range(model.units))})
        for k in k_list:
            k_eff = k if max_radius is None else min(k, max_radius)
            measured = max(abs(1 - kern.evaluate(model, g)) for g in model.ball(0, k))
            expected = 1.0 - math.exp(-k_eff / n)
            sups[(n, k)] = measured
            deviation_rows.append({"n": n, "k": k, "sup_dev": measured, "expected": expected,
                                   "ok": abs(measured - expected) <= 1e-12})
    for k in k_list:
        for lo, hi in zip(n_list, n_list[1:]):
            monotone_rows.append({"k": k, "n_small": lo, "n_large": hi,
                                  "ok": sups[(hi, k)] <= sups[(lo, k)] + 1e-12})
    for n in n_list:
        kern = HaagerupKernel(n)
        for eps in eps_list:
            radius = math.ceil(n * math.log(1.0 / eps))
            tail = math.exp(-(radius + 1) / n)
            ok = tail < eps
            row = {"n": n, "eps": eps, "radius": radius, "tail_bound": tail, "vacuous": False}
            if max_radius is not None and radius >= max_radius:
                row["vacuous"], ok = True, True
            elif model.ball_count(radius + 1) <= spot_budget:
                ok = ok and max(abs(kern.evaluate(model, g))
                                for g in model.sphere(0, radius + 1)) < eps
            row["ok"] = ok
            vanishing_rows.append(row)
    return unit_rows, deviation_rows, monotone_rows, vanishing_rows


@pytest.mark.parametrize("name", ["f2", "z", "f2_32units", "z2_swap", "z6", "s3"])
def test_haagerup_witness_matches_enumeration_oracle(name, s3):
    model = s3 if name == "s3" else etale.load_model(MODELS / f"{name}.json")
    n_list, k_list, eps_list = [0.5, 3, 1, 2], [0, 1, 2, 3, 5, 8], [1, 0.5, 0.1, 0.01]
    rep = haagerup_witness_check(model, n_list, k_list, eps_list)
    units, devs, monos, vans = _reference_haagerup(model, n_list, k_list, eps_list)
    assert rep.unit_rows == units
    assert rep.deviation_rows == devs
    assert rep.monotone_rows == monos
    assert [{k: r[k] for k in vans[0]} for r in rep.vanishing_rows] == vans
    assert rep.passed == all(r["ok"] for r in units + devs + monos + vans)
    assert all(r["spot_checked"] != r["vacuous"] for r in rep.vanishing_rows)


def test_haagerup_witness_beyond_the_enumeration_budget(f2):
    # the radius-30 ball of F2 has about 4e14 elements
    rep = haagerup_witness_check(f2, [2, 4], [1, 30], [0.1])
    assert rep.passed
    devs = {(r["n"], r["k"]): r["sup_dev"] for r in rep.deviation_rows}
    assert devs[(4.0, 30)] == 1 - math.exp(-30 / 4)
    with pytest.raises(ValueError):
        haagerup_witness_check(f2, [2], [], [0.1])


def test_pointwise_product(f2):
    tuples = [f2.ball(0, 1), f2.ball(0, 2)]
    rep = pointwise_product_check(f2, ExpLengthKernel(0.6), ExpLengthKernel(0.7), tuples)
    assert rep.passed
    assert rep.closure_max_dev is not None and rep.closure_max_dev <= 1e-12
    mixed = pointwise_product_check(f2, ExpLengthKernel(0.6), HaagerupKernel(2.0), tuples)
    assert mixed.passed and mixed.closure_max_dev is None
    assert all(r["min_eig"] >= -1e-9 for r in mixed.rows)


def test_table_kernel_entries_read_as_function_entries(f2, f2_32):
    entry = {"unit": 0, "word": "a", "re": 0.25}
    kern = etale.kernel_from_json(f2, {"table": {"entries": [
        {"unit": 0, "word": "", "re": 1.0}, entry, entry,
        {"unit": 0, "word": "a b", "re": 0.0}]}})
    assert kern.radius == 1  # the zero entry is absent
    assert kern.evaluate(f2, GroupoidElement(0, (-1,))) == 0.5  # duplicates add up
    for unit in (99, -1):
        with pytest.raises(ModelError, match=f"unit {unit} out of range"):
            etale.kernel_from_json(f2_32, {"table": {"entries": [entry | {"unit": unit}]}})


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
    for spec, message in (({"entries": [], "raduis": 1}, "unknown config keys: ['raduis']"),
                          ({"radius": 1}, "missing required config keys: ['entries']"),
                          ([], "expected a JSON object"),
                          ({"entries": [{"unit": 0, "word": "a", "re": 1.0, "rex": 2.0}]},
                           "unknown function entry keys ['rex']")):
        with pytest.raises(ModelError, match=re.escape(message)):
            etale.kernel_from_json(f2, {"table": spec})
    with pytest.raises(ModelError):
        etale.kernel_from_json(f2, {"exp_length": 0.5, "haagerup": 2})
