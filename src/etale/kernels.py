"""Positive-definite kernels on a groupoid model and the associated
inner-product (GNS) data.

A kernel assigns a complex value to every groupoid element, Hermitian
under inversion.  The Gram matrix of a tuple inside a common range
fiber is ``G[i, j] = F(x_i^-1 x_j)``; positive semidefiniteness of all
such matrices is what "positive definite kernel" means here, and the
induced inner product ``<d_a, d_b> = F(b^-1 a)`` turns finite balls
into pre-Hilbert spaces on which left translation acts isometrically.

Grams are built for stacks of same-size tuples, of words or of ball-tree
rows, and checked by one stacked ``eigvalsh``, so ``pdcheck`` stacks its
random tuples by size.  A ball's Gram spectrum (``gns``, ball-mode
``pdcheck``) comes from ``ball_spectrum``: for a radial kernel on a free
backend from the root-stabilizer blocks of ``spectral.radial_ball_spectrum``,
with no Gram built; otherwise from the dense Gram, charged before it is built.

Table-kernel entries are read and written as function entries, by
``function_from_json`` and ``function_to_json``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import CcFunction, function_from_json, function_to_json, involution
from .errors import (KernelDomainError, KernelPositivityError, ModelError,
                     PreconditionError, charge)
from .model import (DEFAULT_ENUMERATION_BUDGET, REQUIRED, FreeGroup, GroupoidElement,
                    GroupoidModel, as_float, as_int, as_list, take_keys)
from .spectral import radial_ball_spectrum


class RadialKernel:
    """A kernel whose value is a function ``at_length`` of the word length."""

    def evaluate(self, model: GroupoidModel, g: GroupoidElement) -> complex:
        return self.at_length(model.length(g))


@dataclass(frozen=True)
class ExpLengthKernel(RadialKernel):
    """The radial kernel ``alpha ** word_length``."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ModelError("alpha must lie in (0, 1]")

    def at_length(self, k: int) -> complex:
        return complex(self.alpha ** k)


@dataclass(frozen=True)
class HaagerupKernel(RadialKernel):
    """The radial kernel ``exp(-word_length / n)``."""

    n: float

    def __post_init__(self):
        if self.n <= 0:
            raise ModelError("n must be positive")

    def at_length(self, k: int) -> complex:
        return complex(math.exp(-k / self.n))


class TableKernel:
    """Kernel given by a finitely supported function f = ``CcFunction(model,
    entries)`` on a ball of stated radius (default: f's longest word).  F is
    f completed by ``involution(f)``, which must agree with f where both are
    defined; a zero or missing entry inside the radius counts as 0, and
    evaluation outside it raises."""

    def __init__(self, model: GroupoidModel, entries, radius=None):
        f = CcFunction(model, entries)
        if not all(map(cmath.isfinite, f.data.values())):
            raise ModelError("table kernel values must be finite")
        star = involution(f)
        for g, value in f.items():
            if abs(star.data.get(g, value) - value) > 1e-12:
                raise ModelError(f"table kernel is not Hermitian at {g}")
        self.model = model
        self.table = star.data | f.data
        self.radius = f.max_length() if radius is None else as_int(radius)
        if f.max_length() > self.radius:
            raise ModelError("table entry outside the stated radius")

    def evaluate(self, model: GroupoidModel, g: GroupoidElement) -> complex:
        if model.length(g) > self.radius:
            raise KernelDomainError(
                f"element of length {model.length(g)} outside table radius {self.radius}")
        return self.table.get(g, 0j)


def kernel_from_json(model: GroupoidModel, data: dict):
    if not isinstance(data, dict) or len(data) != 1:
        raise ModelError("kernel descriptor must have exactly one key")
    if "exp_length" in data:
        return ExpLengthKernel(as_float(data["exp_length"]))
    if "haagerup" in data:
        return HaagerupKernel(as_float(data["haagerup"]))
    if "table" in data:
        spec = take_keys(data["table"], {"entries": REQUIRED, "radius": None})
        f = function_from_json(model, spec["entries"])
        return TableKernel(model, f.data, radius=spec["radius"])
    raise ModelError(f"unknown kernel descriptor {sorted(data)!r}")


def kernel_to_json(model: GroupoidModel, kernel) -> dict:
    if isinstance(kernel, ExpLengthKernel):
        return {"exp_length": kernel.alpha}
    if isinstance(kernel, HaagerupKernel):
        return {"haagerup": kernel.n}
    if isinstance(kernel, TableKernel):
        entries = function_to_json(CcFunction(model, kernel.table))
        return {"table": {"radius": kernel.radius, "entries": entries}}
    raise ModelError(f"cannot serialize kernel {kernel!r}")


# -- Gram matrices and positivity -------------------------------------------

def gram_matrix(model: GroupoidModel, kernel, elements) -> np.ndarray:
    """Gram matrix ``G[i, j] = F(x_i^-1 x_j)`` for a tuple in one range fiber:
    the ``gram_stack`` of that one tuple."""
    elements = list(elements)
    u = elements[0].unit if elements else 0
    if any(g.unit != u for g in elements):
        raise PreconditionError("Gram matrix needs elements in a common range fiber")
    return gram_stack(model, kernel, [u], [[g.word for g in elements]])[0]


def gram_stack(model: GroupoidModel, kernel, units, stack, tree=None) -> np.ndarray:
    """Gram matrices, shape (tuples, size, size), of a stack of same-size
    tuples, tuple t in the range fiber at ``units[t]``.  A tuple holds words,
    or, in the index form, rows of ``tree``, a ball tree ``(parent, gen,
    right)`` of ``model.ball_tree``: ``stack`` is then an integer array of
    shape (tuples, size).  A radial kernel is evaluated once per word length
    up to the largest ``length(x_i^-1 x_j)`` and gathered through one
    pair-length table of the whole stack: the backend's ``pair_lengths`` of
    the words, or its ``row_pair_lengths`` of the rows, which on a free
    backend is their distance in the tree.  A table kernel is looked up pair
    by pair, on the words of the rows in the index form."""
    backend = model.backend
    if isinstance(kernel, RadialKernel):
        lengths = (backend.pair_lengths(stack) if tree is None
                   else backend.row_pair_lengths(tree[0], stack))
        values = [kernel.at_length(k) for k in range(int(lengths.max(initial=0)) + 1)]
        return np.array(values, dtype=complex)[lengths]
    if tree is not None:
        words = backend.tree_words(*tree[:2])
        stack = [[words[i] for i in t] for t in stack.tolist()]
    n = len(stack[0]) if len(stack) else 0
    G = np.zeros((len(stack), n, n), dtype=complex)
    for G_t, u, words in zip(G, units, stack):
        for row, a in zip(G_t, words):
            src, a_inv = model.act(u, a), backend.inv(a)
            row[:] = [kernel.evaluate(model, GroupoidElement(src, backend.mul(a_inv, b)))
                      for b in words]
    return G


@dataclass
class PsdResult:
    size: int
    min_eig: float
    passed: bool


def psd_check(model: GroupoidModel, kernel, elements, tol: float = 1e-9) -> PsdResult:
    """Positive semidefiniteness of the Gram matrix, up to ``-tol``."""
    return psd_results(gram_matrix(model, kernel, elements)[None], tol)[0]


def psd_results(G: np.ndarray, tol: float = 1e-9) -> list:
    """A ``PsdResult`` per matrix of the stack G, up to ``-tol``, by one stacked
    ``eigvalsh``, which gives each matrix's own ``eigvalsh`` bit for bit."""
    if G.shape[1] == 0:
        return [PsdResult(size=0, min_eig=0.0, passed=True)] * len(G)
    return [PsdResult(size=G.shape[1], min_eig=e, passed=e >= -tol)
            for e in np.linalg.eigvalsh(G)[:, 0].tolist()]


# -- GNS data ---------------------------------------------------------------

def ball_spectrum(model: GroupoidModel, kernel, u: int, k: int, budget=None) -> np.ndarray:
    """The eigenvalues, ascending and with multiplicity, of the Gram matrix of
    the radius-k ball at unit ``u``.  For an ``exp_length`` or ``haagerup``
    kernel on a free backend the Gram is left convolution by
    ``sum_l F(l) chi_l``, l <= 2k, on the ball, so its spectrum is that of
    ``spectral.radial_ball_spectrum``'s blocks: the ball is charged to
    ``budget`` but neither enumerated nor built.  Otherwise the Gram's n^2
    entries are charged to ``budget`` (None: the enumeration default) before
    the ball is enumerated and the Gram built and solved by ``eigvalsh``."""
    model._charge(k, budget, u)
    if isinstance(kernel, RadialKernel) and isinstance(model.backend, FreeGroup):
        profile = [kernel.at_length(l).real for l in range(2 * k + 1)]
        blocks = radial_ball_spectrum(model.backend.rank, profile, k)
        return np.sort(np.concatenate([np.repeat(e, mult) for e, mult in blocks]))
    n = model.ball_count(k)
    charge(f"Gram matrix of radius {k}", n * n, "entries",
           DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
    return np.linalg.eigvalsh(gram_matrix(model, kernel, model.ball(u, k)))


@dataclass
class GnsData:
    """Inner-product data of a kernel on the radius-``radius`` ball of one
    fiber: its Gram spectrum from ``ball_spectrum``, ascending with
    multiplicity.  ``basis`` (the ball) and ``gram`` are built on first use."""

    model: GroupoidModel
    kernel: object
    unit: int
    radius: int
    eigenvalues: np.ndarray
    null_tol: float

    @cached_property
    def basis(self) -> list:
        return self.model.ball(self.unit, self.radius)

    @cached_property
    def gram(self) -> np.ndarray:
        return gram_matrix(self.model, self.kernel, self.basis)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def null_dim(self) -> int:
        return int(np.sum(self.eigenvalues < self.null_tol))

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.null_dim

    def inner(self, v, w) -> complex:
        """Inner product of coordinate vectors, ``<v, w> = w^H G v``."""
        return complex(np.vdot(np.asarray(w), self.gram @ np.asarray(v)))


def gns_build(model: GroupoidModel, kernel, u: int, k: int,
              null_tol: float = 1e-10, psd_tol: float = 1e-9,
              budget=None) -> GnsData:
    """Gram data of the radius-k ball at unit ``u``, k >= 0, from
    ``ball_spectrum``; raises if the kernel is not positive semidefinite
    there."""
    if k < 0:
        raise PreconditionError("GNS radius k must be >= 0")
    eigenvalues = ball_spectrum(model, kernel, u, k, budget)
    if eigenvalues[0] < -psd_tol:
        raise KernelPositivityError(
            f"kernel has Gram eigenvalue {eigenvalues[0]:.3e} on the radius-{k} ball at unit {u}")
    return GnsData(model=model, kernel=kernel, unit=u, radius=k,
                   eigenvalues=eigenvalues, null_tol=null_tol)


def _translate(model: GroupoidModel, tree, x: GroupoidElement, n: int) -> np.ndarray:
    """The rows of ``x a`` for the first n rows a of ``tree`` (which must hold
    them): x's own row, walked from the root, then by ``model.descend``
    ``moved[i] = right[moved[parent[i]], gen[i]]``."""
    parent, gen, right = tree
    row = 0
    for c in model.backend.spell(x.word):
        row = right[row, c]
    return model.descend(row, parent, gen, right.T, n)


def gns_isometry_defect(model: GroupoidModel, kernel, x: GroupoidElement,
                        k: int, budget=None) -> float:
    """Largest ``|F((x a)^-1 x b) - F(a^-1 b)|`` over a, b in the radius-k
    ball of the source fiber of ``x``: the Gram matrix of the translates
    against that of the ball, zero when left translation by ``x`` is an
    exact isometry for the kernel's inner product on the truncation.  Both
    are read on one ball tree of radius k + |x|, whose rows of the
    translates ``_translate`` walks: no ball is enumerated and no product
    formed.  A radial kernel compares F at the two pair-length tables, as
    their Grams would; a table kernel builds both Grams by one
    ``gram_stack`` in the index form.  The ball, then the 2 n^2 table
    entries (None: the enumeration default), then the tree are charged to
    ``budget`` before any is built."""
    source = model.source_unit(x)
    model._charge(k, budget, source)
    n = model.ball_count(k)
    if not n:
        return 0.0
    charge(f"isometry defect of radius {k}", 2 * n * n, "entries",
           DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
    tree = model.ball_tree(k + model.length(x), budget)
    rows = np.stack([np.arange(n), _translate(model, tree, x, n)])
    if isinstance(kernel, RadialKernel):  # both Grams gather F at their pair lengths
        lengths = model.backend.row_pair_lengths(tree[0], rows).astype(np.intp)
        values = np.array([kernel.at_length(l) for l in range(int(lengths.max()) + 1)],
                          dtype=complex)
        gap = np.abs(values[:, None] - values)  # |F(l) - F(l')| for every pair of lengths
        return float(gap.ravel()[lengths[0] * len(values) + lengths[1]].max())
    G = gram_stack(model, kernel, [source, x.unit], rows, tree)
    return float(np.max(np.abs(G[1] - G[0])))


def matrix_coeff_recovery(model: GroupoidModel, kernel, x: GroupoidElement,
                          k: int) -> complex:
    """Recover ``F(x)`` as the matrix coefficient of left translation: the
    inner product of the translate of the source-unit delta vector with the
    range-unit delta vector, one Gram entry.  Requires ``|x| <= k``, so
    that x lies in the radius-k truncation."""
    if model.length(x) > k:
        raise PreconditionError("need word length of x at most k")
    image = model.compose(x, model.unit_element(model.source_unit(x)))
    return complex(gram_matrix(model, kernel, [model.unit_element(x.unit), image])[0, 1])


# -- structured checks ------------------------------------------------------

@dataclass
class HaagerupReport:
    unit_rows: list
    deviation_rows: list
    monotone_rows: list
    vanishing_rows: list
    passed: bool


# exp(-x) underflows to 0.0 from about x = 745.13 on
EXP_UNDERFLOW = 746


def haagerup_witness_check(model: GroupoidModel, n_list, k_list, eps_list,
                           budget=None) -> HaagerupReport:
    """Witness properties of the kernels ``exp(-length/n)``:

    * value exactly 1 on every unit;
    * sup of ``|1 - F|`` over each radius-k ball equals the closed form
      ``1 - exp(-min(k, diameter)/n)`` and decreases as n grows;
    * ``|F| < eps`` strictly outside the radius ``ceil(n log(1/eps))``.

    F is radial and every fiber has the same spheres, nonempty up to the
    diameter, so each check reads F once per sphere: no ball is enumerated,
    and every non-vacuous row is ``spot_checked`` at ``radius + 1``.  Each
    sup reads F at the lengths 0..min(k, diameter), up to where F underflows
    to 0.0, near length 745 n; their total is charged to ``budget`` (None:
    the enumeration default) before any is read.  Every list must be
    nonempty, every eps lie in (0, 1], every k be an integer >= 0 and every
    ``n log(1/eps)`` be finite.
    """
    n_list = sorted(as_float(n) for n in as_list(n_list))
    k_list = [as_int(k) for k in as_list(k_list)]
    eps_list = [as_float(eps) for eps in as_list(eps_list)]
    if not (n_list and k_list and eps_list):
        raise PreconditionError("n_list, k_list and eps_list must each be nonempty")
    if not all(0 < eps <= 1 for eps in eps_list):
        raise PreconditionError("every eps must lie in (0, 1]")
    if not all(k >= 0 for k in k_list):
        raise PreconditionError("every k must be >= 0")
    if not all(math.isfinite(n * math.log(1.0 / eps)) for n in n_list for eps in eps_list):
        raise PreconditionError("every vanishing radius n log(1/eps) must be a finite float")
    max_radius = model.backend.max_radius
    k_effs = [k if max_radius is None else min(k, max_radius) for k in k_list]
    # a scan stops near EXP_UNDERFLOW * n, which may be inf: it is compared
    # with k before it is rounded
    reads = sum(1 + (k if k <= EXP_UNDERFLOW * n else math.ceil(EXP_UNDERFLOW * n))
                for n in n_list for k in k_effs)
    charge("Haagerup sup scan", reads, "lengths",
           DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
    unit_rows, deviation_rows, vanishing_rows = [], [], []
    sups: dict[tuple, float] = {}
    for n in n_list:
        kern = HaagerupKernel(n)
        unit_rows.append({"n": n, "ok": kern.at_length(0) == 1.0})
        for k, k_eff in zip(k_list, k_effs):
            measured = 0.0
            for j in range(k_eff + 1):  # from the first F(j) that underflows, |1 - F| is 1.0
                measured = max(measured, abs(1 - (value := kern.at_length(j))))
                if not value:
                    break
            expected = 1.0 - math.exp(-k_eff / n)
            sups[(n, k)] = measured
            deviation_rows.append({"n": n, "k": k, "sup_dev": measured, "expected": expected,
                                   "ok": abs(measured - expected) <= 1e-12})
        for eps in eps_list:
            radius = math.ceil(n * math.log(1.0 / eps))
            tail = math.exp(-(radius + 1) / n)
            row = {"n": n, "eps": eps, "radius": radius, "tail_bound": tail}
            if max_radius is not None and radius >= max_radius:
                # nothing outside the stated radius in a bounded model
                row |= {"spot_checked": False, "vacuous": True, "ok": True}
            else:
                row |= {"spot_checked": True, "vacuous": False,
                        "ok": tail < eps and abs(kern.at_length(radius + 1)) < eps}
            vanishing_rows.append(row)
    monotone_rows = [{"k": k, "n_small": lo, "n_large": hi,
                      "ok": sups[(hi, k)] <= sups[(lo, k)] + 1e-12}
                     for k in k_list for lo, hi in zip(n_list, n_list[1:])]
    rows = unit_rows + deviation_rows + monotone_rows + vanishing_rows
    return HaagerupReport(unit_rows=unit_rows, deviation_rows=deviation_rows,
                          monotone_rows=monotone_rows, vanishing_rows=vanishing_rows,
                          passed=all(row["ok"] for row in rows))


@dataclass
class ProductCheckReport:
    rows: list
    closure_max_dev: float | None
    passed: bool


def pointwise_product_check(model: GroupoidModel, k1, k2, tuples,
                            tol: float = 1e-9) -> ProductCheckReport:
    """Pointwise products of positive-definite kernels stay positive
    definite: check the entrywise product of Gram matrices on each
    tuple.  For two exp-length kernels, also confirm the product is the
    exp-length kernel of the product base."""
    rows = []
    passed = True
    for elements in tuples:
        elements = list(elements)
        G = gram_matrix(model, k1, elements) * gram_matrix(model, k2, elements)
        res = psd_results(G[None], tol)[0]
        rows.append({"size": res.size, "min_eig": res.min_eig, "ok": res.passed})
        passed = passed and res.passed

    closure_max_dev = None
    if isinstance(k1, ExpLengthKernel) and isinstance(k2, ExpLengthKernel):
        prod = ExpLengthKernel(k1.alpha * k2.alpha)
        dev = 0.0
        for elements in tuples:
            for g in elements:
                lhs = k1.evaluate(model, g) * k2.evaluate(model, g)
                dev = max(dev, abs(lhs - prod.evaluate(model, g)))
        closure_max_dev = dev
        passed = passed and dev <= 1e-12
    return ProductCheckReport(rows=rows, closure_max_dev=closure_max_dev, passed=passed)
