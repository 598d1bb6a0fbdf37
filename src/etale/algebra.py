"""Compactly supported functions on a groupoid model: the convolution
*-algebra, fiberwise norms, and the pairing against a kernel state.

A ``CcFunction`` is a finitely supported map from groupoid elements to
complex numbers, stored sparsely.  Convolution sums over composable
pairs, ``(f * g)(x) = sum_{x = y z} f(y) g(z)``; the involution is
``f^*(x) = conj(f(x^-1))``.
"""
from __future__ import annotations

import cmath
import json

from .errors import ModelError, PreconditionError, charge
from .model import (GroupoidElement, GroupoidModel, MeasureContext, as_float, as_int, as_list,
                    as_path, read_json)


class CcFunction:
    """Sparse compactly supported function on a groupoid model, made from a
    mapping of elements to values or from ``(element, value)`` pairs added up
    per element in order; zeros are dropped, and elements keep first-appearance order."""

    __slots__ = ("model", "data")

    def __init__(self, model: GroupoidModel, data=None):
        self.model = model
        if hasattr(data, "items"):
            pairs = zip(data, map(complex, data.values()))
        else:
            sums = {}  # a sum starts at 0j, so it is complex
            for key, value in data or ():
                sums[key] = sums.get(key, 0j) + value
            pairs = sums.items()
        self.data = {key if type(key) is GroupoidElement else GroupoidElement(*key): value
                     for key, value in pairs if value != 0}

    # -- container basics ---------------------------------------------------

    def value(self, g) -> complex:
        return self.data.get(g, 0j)

    def items(self):
        return self.data.items()

    def support(self):
        return self.data.keys()

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CcFunction) and other.model is self.model
                and other.data == self.data)

    def __repr__(self) -> str:
        return f"CcFunction({len(self.data)} points)"

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "CcFunction") -> "CcFunction":
        _same_model(self, other)
        return CcFunction(self.model, [*self.data.items(), *other.data.items()])

    def __neg__(self) -> "CcFunction":
        return CcFunction(self.model, {k: -v for k, v in self.data.items()})

    def __sub__(self, other: "CcFunction") -> "CcFunction":
        return self + (-other)

    def __mul__(self, scalar) -> "CcFunction":
        scalar = complex(scalar)
        return CcFunction(self.model, {k: v * scalar for k, v in self.data.items()})

    __rmul__ = __mul__

    # -- support geometry ---------------------------------------------------

    def max_length(self) -> int:
        return max((self.model.length(g) for g in self.data), default=0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.data.values()), default=0.0)

    def length_slice(self, m: int) -> "CcFunction":
        """Pointwise product with the indicator of word length exactly m."""
        return CcFunction(self.model,
                          {g: v for g, v in self.data.items() if self.model.length(g) == m})

    def fiber_l1(self, u: int) -> float:
        """l1 mass on the range fiber at ``u``."""
        return sum(abs(v) for g, v in self.data.items() if g.unit == u)


def _same_model(f: CcFunction, g: CcFunction) -> None:
    if f.model is not g.model:
        raise ModelError("functions live on different models")


# -- constructors -----------------------------------------------------------

def delta(model: GroupoidModel, g: GroupoidElement, value=1.0) -> CcFunction:
    return CcFunction(model, {g: value})


def unit_indicator(model: GroupoidModel) -> CcFunction:
    """Indicator of the unit space; the identity for convolution."""
    return CcFunction(model, {model.unit_element(u): 1.0 for u in range(model.units)})


def sphere_indicator(model: GroupoidModel, k: int, budget=None) -> CcFunction:
    """Indicator of word length exactly k >= 0, over every fiber."""
    if k < 0:
        raise PreconditionError(f"sphere radius k must be >= 0, got {k}")
    words = [g.word for g in model.sphere(0, k, budget=budget)]
    return CcFunction(model, {(u, w): 1.0 for u in range(model.units) for w in words})


def length_weighted(model: GroupoidModel, alpha: float, k: int, budget=None) -> CcFunction:
    """The function ``alpha^k`` on the length-k sphere of every fiber."""
    if not cmath.isfinite(alpha):
        raise ModelError(f"alpha must be finite, got {alpha!r}")
    try:
        weight = alpha ** k
    except (OverflowError, ZeroDivisionError) as exc:
        raise ModelError(f"alpha ** k fails for alpha={alpha!r}, k={k}: {exc}") from exc
    return sphere_indicator(model, k, budget=budget) * weight


# -- *-algebra operations ---------------------------------------------------

def convolve(f: CcFunction, g: CcFunction, budget=None) -> CcFunction:
    """Convolution product, summing over composable factorizations.

    ``budget`` bounds the number of pair products, which is checked
    before any is made."""
    _same_model(f, g)
    model = f.model
    backend = model.backend
    by_range: dict[int, list] = {}
    for b, vb in g.data.items():
        by_range.setdefault(b.unit, []).append((b, vb))
    # each a with the b of range source(a), so composable by construction
    pairs = [(a, va, by_range.get(model.source_unit(a), ())) for a, va in f.data.items()]
    if budget is not None:
        charge("convolution", sum(len(bs) for *_, bs in pairs), "pair products", budget)
    return CcFunction(model, ((GroupoidElement(a.unit, backend.mul(a.word, b.word)), va * vb)
                              for a, va, bs in pairs for b, vb in bs))


def involution(f: CcFunction) -> CcFunction:
    """The adjoint ``f^*(x) = conj(f(x^-1))``."""
    return CcFunction(f.model, {f.model.inverse(g): v.conjugate() for g, v in f.data.items()})


def i_norm(f: CcFunction) -> float:
    """Max over units of the larger of the range- and source-fiber l1 masses."""
    by_range: dict[int, float] = {}
    by_source: dict[int, float] = {}
    model = f.model
    for g, v in f.data.items():
        a = abs(v)
        by_range[g.unit] = by_range.get(g.unit, 0.0) + a
        s = model.source_unit(g)
        by_source[s] = by_source.get(s, 0.0) + a
    return max(max(by_range.values(), default=0.0), max(by_source.values(), default=0.0))


def lp_norm(f: CcFunction, p: float, mu: MeasureContext) -> float:
    """Fiberwise l^p norm integrated against the unit-space weights."""
    if p < 1:
        raise PreconditionError("p must be >= 1")
    total = 0.0
    for g, v in f.data.items():
        total += mu.weight(g.unit) * abs(v) ** p
    return total ** (1.0 / p)


def omega_pairing(f: CcFunction, phi, mu: MeasureContext) -> complex:
    """The state-like pairing ``sum_u mu(u) sum_{x in G^u} f(x) phi(x)``."""
    model = f.model
    total = 0j
    for g, v in f.data.items():
        total += mu.weight(g.unit) * v * phi.evaluate(model, g)
    return total


# -- serialization ----------------------------------------------------------

def function_to_json(f: CcFunction) -> list[dict]:
    backend = f.model.backend
    entries = []
    for g, v in f.data.items():
        entries.append({
            "unit": g.unit,
            "word": backend.word_to_json(g.word),
            "re": v.real,
            "im": v.imag,
        })
    entries.sort(key=lambda e: (e["unit"], len(str(e["word"])), str(e["word"])))
    return entries


ENTRY_KEYS = frozenset({"unit", "word", "re", "im"})


def function_from_json(model: GroupoidModel, entries) -> CcFunction:
    """The function of a list of ``{unit, word, re, im}`` entries; duplicates
    add up, and a value that is not a list or a key outside those four raises
    ModelError."""
    backend = model.backend
    pairs = []
    for entry in as_list(entries):
        if isinstance(entry, dict) and (unknown := entry.keys() - ENTRY_KEYS):
            raise ModelError(f"unknown function entry keys {sorted(unknown)} in {entry!r}")
        try:
            u = as_int(entry["unit"])
            word = backend.word_from_json(entry["word"])
            value = complex(as_float(entry.get("re", 0.0)), as_float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed function entry {entry!r}: {exc}") from exc
        model.unit_element(u)  # range-checks u
        pairs.append((GroupoidElement(u, word), value))
    return CcFunction(model, pairs)


def save_function(f: CcFunction, path) -> None:
    with open(as_path(path), "w") as fh:
        fh.write(json.dumps(function_to_json(f), indent=2, sort_keys=True) + "\n")


def load_function(model: GroupoidModel, path) -> CcFunction:
    return function_from_json(model, read_json(path))
