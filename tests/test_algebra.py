"""Convolution *-algebra: products, involution, norms, state pairing."""
import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import random_function

import etale
from etale import (BudgetError, CcFunction, ExpLengthKernel, GroupoidElement,
                   HaagerupKernel, ModelError, convolve, delta, i_norm,
                   involution, length_weighted, lp_norm, omega_pairing,
                   sphere_indicator, unit_indicator)


def brute_convolve(f, g):
    """Oracle: (f*g)(x) = sum_y f(y) g(y^-1 x), sweeping x over all products."""
    model = f.model
    out = {}
    for a in f.support():
        for b in g.support():
            if model.source_unit(a) != b.unit:
                continue
            x = model.compose(a, b)
            out.setdefault(x, 0j)
    for x in out:
        total = 0j
        for y, vy in f.items():
            if y.unit != x.unit:
                continue
            z = model.compose(model.inverse(y), x)
            total += vy * g.value(z)
        out[x] = total
    return {k: v for k, v in out.items() if v != 0}


def max_diff(f, g):
    keys = set(f.support()) | set(g.support())
    return max((abs(f.value(k) - g.value(k)) for k in keys), default=0.0)


def test_integer_line_square(z):
    f = sphere_indicator(z, 1)
    sq = convolve(f, f)
    assert sq.value(GroupoidElement(0, ())) == 2
    assert sq.value(GroupoidElement(0, (1, 1))) == 1
    assert sq.value(GroupoidElement(0, (-1, -1))) == 1
    assert len(sq) == 3


def test_negative_sphere_radius_refused(f2, z6):
    for model in (f2, z6):
        with pytest.raises(ValueError, match="k must be >= 0"):
            sphere_indicator(model, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            length_weighted(model, 0.5, -1)


def test_unit_indicator_is_identity(f2_32):
    rng = np.random.default_rng(11)
    f = random_function(f2_32, rng, 2, 40)
    e = unit_indicator(f2_32)
    assert max_diff(convolve(e, f), f) == 0
    assert max_diff(convolve(f, e), f) == 0


def test_delta_composition(z2_swap):
    g = GroupoidElement(0, 1)
    h = GroupoidElement(1, 1)
    prod = convolve(delta(z2_swap, g), delta(z2_swap, h))
    assert prod.data == {z2_swap.unit_element(0): 1 + 0j}
    # non-composable pair contributes nothing
    assert len(convolve(delta(z2_swap, g), delta(z2_swap, g))) == 0


def test_convolve_against_oracle(f2_32, z6):
    rng = np.random.default_rng(3)
    for model in (f2_32, z6):
        f = random_function(model, rng, 2, 25)
        g = random_function(model, rng, 2, 25)
        got = convolve(f, g)
        want = brute_convolve(f, g)
        keys = set(got.support()) | set(want.keys())
        assert max(abs(got.value(k) - want.get(k, 0j)) for k in keys) < 1e-12


def test_exact_cancellation_drops_the_element(z):
    a, A, e = GroupoidElement(0, (1,)), GroupoidElement(0, (-1,)), GroupoidElement(0, ())
    da, dA = delta(z, a), delta(z, A)
    assert (da + dA - da).data == {A: 1} and len(da - da) == 0
    f = etale.function_from_json(z, [{"unit": 0, "word": "a", "re": 1.0},
                                     {"unit": 0, "word": "A", "re": 2.0},
                                     {"unit": 0, "word": "a", "re": -1.0}])
    assert f.data == {A: 2}
    # (a + A)(a - A) = a^2 - e + e - A^2: the identity terms cancel exactly
    h = convolve(da + dA, da - dA)
    assert e not in h.data
    assert h.data == {GroupoidElement(0, (1, 1)): 1, GroupoidElement(0, (-1, -1)): -1}


def test_associativity_and_involution(f2_32):
    rng = np.random.default_rng(5)
    f = random_function(f2_32, rng, 2, 20)
    g = random_function(f2_32, rng, 2, 20)
    h = random_function(f2_32, rng, 2, 20)
    assert max_diff(convolve(convolve(f, g), h), convolve(f, convolve(g, h))) < 1e-12
    assert max_diff(involution(involution(f)), f) == 0
    assert max_diff(involution(convolve(f, g)),
                    convolve(involution(g), involution(f))) < 1e-12


def test_support_length_subadditive(f2):
    rng = np.random.default_rng(9)
    f = random_function(f2, rng, 3, 15)
    g = random_function(f2, rng, 2, 10)
    assert convolve(f, g).max_length() <= f.max_length() + g.max_length()


def test_convolution_budget(f2):
    f = sphere_indicator(f2, 3)
    with pytest.raises(BudgetError):
        convolve(f, f, budget=10)


def test_mixed_models_rejected(f2, z):
    with pytest.raises(ModelError):
        convolve(unit_indicator(f2), unit_indicator(z))
    with pytest.raises(ModelError):
        unit_indicator(f2) + unit_indicator(z)


def test_i_norm(f2, f2_32):
    assert i_norm(sphere_indicator(f2, 1)) == 4.0
    assert i_norm(unit_indicator(f2_32)) == 1.0
    rng = np.random.default_rng(13)
    f = random_function(f2_32, rng, 2, 30)
    g = random_function(f2_32, rng, 2, 30)
    assert i_norm(convolve(f, g)) <= i_norm(f) * i_norm(g) + 1e-12


def test_lp_norm_values(f2, mu_f2, f2_32, mu_f2_32):
    assert lp_norm(sphere_indicator(f2, 1), 2, mu_f2) == pytest.approx(2.0)
    d = delta(f2_32, f2_32.unit_element(0))
    for p in (1, 2, 4):
        assert lp_norm(d, p, mu_f2_32) == pytest.approx((1 / 32) ** (1 / p))
    with pytest.raises(ValueError):
        lp_norm(d, 0.5, mu_f2_32)


def test_lp_monotone_in_p_for_indicators(f2, mu_f2):
    for k in (1, 2, 3):
        chi = sphere_indicator(f2, k)
        norms = [lp_norm(chi, p, mu_f2) for p in (1, 2, 3, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_pairing_matches_lp_power(f2, mu_f2, f2_32, mu_f2_32):
    # omega_phi(phi^{p-1} . chi_k) equals |phi . chi_k|_p^p for real phi >= 0
    alpha, p, k = 0.6, 4, 3
    for model, mu in ((f2, mu_f2), (f2_32, mu_f2_32)):
        phi = ExpLengthKernel(alpha)
        f = etale.length_weighted(model, alpha ** (p - 1), k)
        lhs = omega_pairing(f, phi, mu)
        rhs = lp_norm(etale.length_weighted(model, alpha, k), p, mu) ** p
        assert lhs.imag == 0
        assert lhs.real == pytest.approx(rhs, rel=1e-12)


def test_pairing_positive_on_squares(f2, mu_f2):
    rng = np.random.default_rng(21)
    for phi in (ExpLengthKernel(0.5), HaagerupKernel(3)):
        for _ in range(20):
            f = random_function(f2, rng, 2, 8)
            val = omega_pairing(convolve(involution(f), f), phi, mu_f2)
            assert abs(val.imag) < 1e-10
            assert val.real > -1e-10


def test_scalar_and_linear_ops(f2_32, mu_f2_32):
    rng = np.random.default_rng(2)
    f = random_function(f2_32, rng, 2, 12)
    g = random_function(f2_32, rng, 2, 12)
    assert max_diff((f + g) - g, f) < 1e-12
    assert lp_norm(2j * f, 2, mu_f2_32) == pytest.approx(2 * lp_norm(f, 2, mu_f2_32))
    assert len(0 * f) == 0
    assert (f - f).data == {}


def test_length_slice_partition(f2):
    rng = np.random.default_rng(17)
    f = random_function(f2, rng, 3, 30)
    rebuilt = CcFunction(f2)
    for m in range(f.max_length() + 1):
        rebuilt = rebuilt + f.length_slice(m)
    assert max_diff(rebuilt, f) == 0


def test_function_json_roundtrip(f2_32, z6, tmp_path):
    rng = np.random.default_rng(31)
    for model in (f2_32, z6):
        f = random_function(model, rng, 2, 20)
        path = tmp_path / "f.json"
        etale.save_function(f, path)
        g = etale.load_function(model, path)
        assert max_diff(f, g) == 0


def test_function_json_accumulates_duplicates(z):
    entries = [
        {"unit": 0, "word": "a", "re": 1.0, "im": 0.0},
        {"unit": 0, "word": "a", "re": 2.0, "im": 1.0},
    ]
    f = etale.function_from_json(z, entries)
    assert f.value(GroupoidElement(0, (1,))) == 3 + 1j
    with pytest.raises(ModelError):
        etale.function_from_json(z, [{"unit": 4, "word": "a", "re": 1.0}])
    with pytest.raises(ModelError):
        etale.function_from_json(z, [{"word": "a"}])
    for bad in ({"re": float("inf")}, {"im": float("nan")}):
        with pytest.raises(ModelError):
            etale.function_from_json(z, [{"unit": 0, "word": "a", **bad}])


def _bits(pairs):
    """(element, real bits, imaginary bits) in order; -0.0 differs from 0.0."""
    return [(g, np.float64(v.real).tobytes(), np.float64(v.imag).tobytes()) for g, v in pairs]


def test_scalar_underflow_drops_the_element(f2):
    a = GroupoidElement(0, (1,))
    g = CcFunction(f2, {a: 1e-200}) * 1e-200
    assert len(g) == 0 and g == CcFunction(f2)
    assert list((CcFunction(f2, {a: 1e-200, (0, (2,)): 1.0}) * 1e-200).support()) == [(0, (2,))]


def test_pairs_add_up_in_order_and_keep_first_appearance(f2):
    a, b, c = (GroupoidElement(0, w) for w in ((1,), (2,), (1, 1)))
    # in order, 1e16 + 1 rounds back to 1e16: a ends at 3, where any other
    # order of its four values would end at 4
    f = CcFunction(f2, [(c, 1.0), (a, 1e16), (b, 2), (a, 1.0), (c, -1.0), (a, -1e16), (a, 3)])
    assert list(f.items()) == [(a, 3 + 0j), (b, 2 + 0j)]
    assert all(type(v) is complex for v in f.data.values())
    assert CcFunction(f2, iter([(a, 1.0), (a, -1.0)])) == CcFunction(f2) == CcFunction(f2, [])
    # a sum is the same as the function of the concatenated pairs
    g = CcFunction(f2, {b: 1.0, c: 5.0})
    assert list((f + g).items()) == list(CcFunction(f2, [*f.items(), *g.items()]).items())
    assert list((f + g).support()) == [a, b, c]


def test_tuple_keys_become_groupoid_elements(f2):
    for data in ({(0, (1,)): 2.0, (0, ()): 1.0}, [((0, (1,)), 2.0), ((0, ()), 1.0)]):
        f = CcFunction(f2, data)
        assert list(f.support()) == [(0, (1,)), (0, ())]
        assert all(type(g) is GroupoidElement for g in f.support())
        assert f == CcFunction(f2, {GroupoidElement(0, (1,)): 2.0, GroupoidElement(0, ()): 1})


def test_unary_operations_keep_order_and_every_bit(f2_32):
    # -0.0 parts in f and in each result: adding a value into 0j would lose them
    words = [(1,), (), (2, 1), (-1,), (1, 2, -1), (-2,), (2,)]
    values = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -2.0), 0.25 - 3j,
              complex(-1.0, 0.0), complex(1e-300, -1e300), complex(0.0, 2.5)]
    f = CcFunction(f2_32, {(u, w): v for u, (w, v) in enumerate(zip(words, values))})
    assert len(f) == len(words)
    model = f2_32
    expected = {
        "neg": (-f, [(g, -v) for g, v in f.items()]),
        "scale": (f * 0.5, [(g, v * complex(0.5)) for g, v in f.items()]),
        "cscale": ((2 - 1j) * f, [(g, v * (2 - 1j)) for g, v in f.items()]),
        "slice": (f.length_slice(1), [(g, v) for g, v in f.items() if model.length(g) == 1]),
        "star": (involution(f), [(model.inverse(g), v.conjugate()) for g, v in f.items()]),
    }
    for name, (got, pairs) in expected.items():
        assert _bits(got.items()) == _bits(pairs), name


def test_data_is_bound_only_by_the_constructor():
    # every function gets its invariant from CcFunction.__init__: no other
    # code binds ``.data``, and there is no second accumulator
    sites, summed = [], []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "etale").glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_summed":
                summed.append(path.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr == "data":
                        chain = [node]
                        while chain[-1] in parent:
                            chain.append(parent[chain[-1]])
                        names = [n.name for n in chain
                                 if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
                        sites.append((path.name, tuple(reversed(names))))
    assert sites == [("algebra.py", ("CcFunction", "__init__"))]
    assert summed == []
