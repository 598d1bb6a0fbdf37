"""Reduced-norm estimates for the convolution algebra.

``reduced_norm_at_unit`` compresses left convolution by ``f`` onto the
radius-L ball of a source fiber (matrix ``M[y, y'] = f(y y'^-1)``) and
estimates its largest singular value by Lanczos from a random start vector
drawn from ``seed``: on M itself when ``f`` is self-adjoint, on ``M^H M``
otherwise.  ``iterations`` counts Lanczos steps, and ``converged`` means
the Ritz residual is at most ``tol * max(1, |theta|)``, so the Ritz value
theta lies within the residual of a true eigenvalue of the operator solved;
that it is the top one is certain only once an upper bound closes the gap.
M is read off the ball's integer tree as one column and one value per
(row, word of f) and applied as a numpy gather; ``M^H`` is the same
operator for ``f^*``.  Compressions only grow with L, so the estimates
form a nondecreasing trace of lower bounds.  One ball tree, built at the
top rung, serves a call: every rung is a prefix of it, and every unit a
labelling of its rows.  ``reduced_norm`` takes the largest over units; when
f's values do not depend on the range unit, every fiber has the same
operator and one unit is solved for all.

``power_sequence_norm`` squares ``f^* * f`` repeatedly by convolution
and reports ``|h_n|_2 ^ (1/(2*2^n))``, which climbs to the same norm
from the algebra side.  Sphere-symmetric functions on free backends
are squared in a radial representation (one coefficient per sphere,
exact product expansion), which keeps the support size linear in the
radius instead of exponential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CcFunction, convolve, involution, length_weighted, lp_norm
from .errors import BudgetError
from .model import FreeGroup, GroupoidModel, MeasureContext

DEFAULT_POWER_BUDGET = 10_000_000
DEFAULT_LADDER = (4, 6, 8, 10, 12)
UNIT_SAMPLE = 64  # reduced_norm solves a seeded sample of this many units beyond it


# -- Lanczos ----------------------------------------------------------------

def _apply(op, v):
    """``M @ v`` for an operator ``(cols, vals)`` of ``_operator``,
    accumulated in place one word of f at a time."""
    cols, vals = op
    x = np.append(v, 0)
    out = np.zeros(cols.shape[1], dtype=np.result_type(vals, v))
    if vals.dtype.kind != "c":
        for c, a in zip(cols, vals):
            out += a * x.take(c)
        return out
    # the complex product written out: numpy fuses it with FMA on some CPUs,
    # which would make the last bits depend on the host
    for c, a in zip(cols, vals):
        g = x.take(c)
        out.real += a.real * g.real - a.imag * g.imag
        out.imag += a.real * g.imag + a.imag * g.real
    return out


def _lanczos(apply, n: int, work: int, max_iter: int, tol: float, seed: int):
    """Lanczos on a Hermitian operator A of order n, given as ``apply(v)``
    with ``work`` multiply-adds, from a seeded random start.  Only the
    three-term recurrence is kept, no basis: lost orthogonality adds ghost
    copies of converged Ritz values but no wrong ones (Paige).  Returns
    ``(|theta|, steps, residual, converged)`` for the Ritz value theta of
    largest modulus, with residual ``beta_k |s_k|``, the norm of
    ``A y - theta y`` for its Ritz vector y.

    The dense spectrum of the tridiagonal T_k (~k^3 work) is computed after
    every step while that costs no more than an apply, then every ~k/10
    steps: eigenvalues alone until the top one stalls, then with vectors
    for the residual.  Overflow in the recurrence raises ValueError."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = 0.0
    last = None
    stalled = False
    next_check = 1
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(1, max_iter + 1):
                w = apply(v)
                alpha = float(np.vdot(v, w).real)
                w -= alpha * v
                v_prev *= beta
                w -= v_prev
                beta = float(np.linalg.norm(w))
                alphas.append(alpha)
                betas.append(beta)
                if k >= next_check or k == max_iter or beta == 0.0:
                    next_check = k + (1 if k ** 3 <= work else max(1, k // 10))
                    T = np.diag(alphas) + np.diag(betas[:-1], -1)
                    if not stalled:
                        top = float(np.max(np.abs(np.linalg.eigvalsh(T))))
                        stalled = last is not None and abs(top - last) <= tol * max(1.0, top)
                        last = top
                    if stalled or k == max_iter or beta == 0.0:
                        theta, s = np.linalg.eigh(T)
                        i = int(np.argmax(np.abs(theta)))
                        top, residual = abs(float(theta[i])), beta * abs(float(s[-1, i]))
                        if residual <= tol * max(1.0, top):
                            return top, k, residual, True
                w /= beta
                v_prev, v = v, w
    except FloatingPointError as exc:
        raise ValueError("the coefficients of f overflow float64 in the Lanczos "
                         f"recurrence ({exc})") from None
    return top, max_iter, residual, False


@dataclass
class NormEstimate:
    """Largest-L truncated-norm estimate with its full ladder trace."""

    value: float
    L: int
    unit: int
    iterations: int
    residual: float
    converged: bool
    trace: list = field(default_factory=list)  # rows: (L, value, iterations, residual, converged)
    monotone: bool = True
    units_checked: list = field(default_factory=list)

    def csv_rows(self):
        rows = [("L", "value", "iterations", "residual", "converged")]
        rows.extend(self.trace)
        return rows


def _truncation_ladder(L: int, ladder) -> list[int]:
    if ladder is not None:
        out = sorted({int(x) for x in ladder})
        if not out or out[-1] != L:
            raise ValueError("ladder must be nonempty and end at L")
    else:
        out = sorted({min(x, L) for x in DEFAULT_LADDER} | {L})
    if out[0] < 0:
        raise ValueError("truncation radii must be >= 0")
    return out


def _operator(f: CcFunction, right, ns):
    """Left convolution by f on the source-fiber balls of ``ns`` rows, read
    off one ball tree ``right`` that holds the largest: basis element i is
    ``(u.w_i, w_i^-1)``, and ``M[i, j] = f(u.w_i, w_i^-1 w_j)``.  Returns
    ``(at, unit_free)``: ``at(r, units)`` is the ``(cols, vals)`` of rung r at
    the tree's unit labels with ``M[i, cols[k, i]] = vals[k, i]`` for the words
    x_k of f, sorted by column in each row; column n is a zero pad.  When
    ``unit_free``, f's values do not depend on the range unit, and neither do
    f^*'s, so ``at(r, None)`` needs no labels.

    One walk per x_k serves every rung as its first n columns clamped at n: a
    reduced path never re-enters a ball it has left, and a finite backend's
    tree is the whole group.  The top rung is clamped and sorted in place, so
    no unsorted copy is kept."""
    by_word: dict = {}  # word -> its value of f at every range unit
    for g, v in f.items():
        by_word.setdefault(g.word, np.zeros(f.model.units, dtype=complex))[g.unit] = v
    table = np.array(list(by_word.values())).reshape(len(by_word), f.model.units)
    if not table.imag.any():
        table = table.real.copy()
    top = np.empty((len(by_word), ns[-1]), dtype=np.int64)
    for k, x in enumerate(by_word):
        col = np.arange(ns[-1])
        for c in f.model.backend.spell(x):
            col = right[col, c]
        top[k] = col
    rungs = []  # (cols, order): order[k, i] is the word sorted to cols[k, i]
    for r, n in enumerate(ns):
        cols = np.minimum(top[:, :n], n, out=top if r == len(ns) - 1 else None)
        order = np.argsort(cols, axis=0, kind="stable")
        cols.sort(axis=0)
        rungs.append((cols, order))

    def at(r: int, units):
        cols, order = rungs[r]
        vals = table[order, 0 if units is None else units[:cols.shape[1]]]
        if vals.dtype.kind == "c" and not vals.imag.any():
            vals = vals.real.copy()
        return cols, vals
    return at, bool(np.all(table == table[:, :1]))


class _Solves:
    """The ladder, the ball tree and the operators of one ``f``, shared
    between units.  The tree is built, and charged to ``budget``, once at
    the top rung."""

    def __init__(self, f: CcFunction, L: int, ladder, max_iter: int, tol: float,
                 seed: int, budget):
        if not tol >= 0:
            raise ValueError(f"tol must be >= 0, got {tol}")
        self.ladder = _truncation_ladder(L, ladder)
        self.parent, self.gen, right = f.model.ball_tree(self.ladder[-1], budget)
        ns = [f.model.ball_count(Lk) for Lk in self.ladder]
        f_star = involution(f)
        self.op, self.unit_free = _operator(f, right, ns)
        self.op_h = self.op if f_star == f else _operator(f_star, right, ns)[0]
        self.args = (max_iter, tol, seed)

    def rung(self, r: int, units):
        """``(value, iterations, residual, converged)`` for the largest
        singular value of f's operator M at rung r and the unit labels
        ``units``: Lanczos on M when f is self-adjoint, on ``M^H M`` otherwise."""
        cols, _ = op = self.op(r, units)
        n = cols.shape[1]
        if self.op_h is self.op:
            return _lanczos(lambda v: _apply(op, v), n, cols.size, *self.args)
        # M^H is the operator of f^* on the same ball: f^*(u.w_j, w_j^-1 w_i)
        # is the conjugate of f(u.w_i, w_i^-1 w_j)
        op_h = self.op_h(r, units)
        theta, *rest = _lanczos(lambda v: _apply(op_h, _apply(op, v)), n,
                                cols.size + op_h[0].size, *self.args)
        return (math.sqrt(theta), *rest)


def reduced_norm_at_unit(f: CcFunction, u: int, L: int, max_iter: int = 2000,
                         tol: float = 1e-10, ladder=None, budget=None, seed: int = 0,
                         _solves=None) -> NormEstimate:
    """Truncated-convolution norm of ``f`` on the source fiber at ``u``,
    over an increasing ladder of truncation radii ending at L.  Each rung
    is one Lanczos solve started from ``seed``.  ``reduced_norm`` passes
    ``_solves``, which carries the ladder, the solver settings, the tree
    and the operators shared between units."""
    f.model.unit_element(u)
    solves = _Solves(f, L, ladder, max_iter, tol, seed, budget) if _solves is None else _solves
    units = None if solves.unit_free else f.model.unit_labels(u, solves.parent, solves.gen)
    trace = [(Lk, *solves.rung(r, units)) for r, Lk in enumerate(solves.ladder)]
    monotone = all(b[1] >= a[1] - 1e-8 for a, b in zip(trace, trace[1:]))
    last = trace[-1]
    return NormEstimate(value=last[1], L=last[0], unit=u, iterations=last[2],
                        residual=last[3], converged=last[4], trace=trace,
                        monotone=monotone, units_checked=[u])


def reduced_norm(f: CcFunction, L: int, max_iter: int = 2000, tol: float = 1e-10,
                 ladder=None, budget=None, seed: int = 0) -> NormEstimate:
    """Largest truncated-norm estimate over units (all units, or a sample of
    ``UNIT_SAMPLE`` drawn from ``seed`` when there are more).  When f's values
    do not depend on the range unit, every unit has the same operator, so
    only the first is solved."""
    model = f.model
    if model.units <= UNIT_SAMPLE:
        units = list(range(model.units))
    else:
        rng = np.random.default_rng(seed)
        units = sorted(rng.choice(model.units, size=UNIT_SAMPLE, replace=False).tolist())
    solves = _Solves(f, L, ladder, max_iter, tol, seed, budget)
    # the first unit to reach the largest value
    best = max((reduced_norm_at_unit(f, u, L, _solves=solves)
                for u in (units[:1] if solves.unit_free else units)),
               key=lambda est: est.value)
    best.units_checked = units
    return best


# -- radial representation on free backends ---------------------------------

def radial_profile_of(f: CcFunction):
    """Per-sphere coefficients of ``f`` when it is sphere-symmetric over
    every fiber of a free backend; None otherwise.  Integer-valued
    profiles are returned as ints so later arithmetic stays exact."""
    model = f.model
    if not isinstance(model.backend, FreeGroup):
        return None
    if not f.data:
        return []
    top = f.max_length()
    values = [None] * (top + 1)
    counts = [0] * (top + 1)
    for g, v in f.items():
        l = len(g.word)
        if values[l] is None:
            values[l] = v
        elif values[l] != v:
            return None
        counts[l] += 1
    coeffs = []
    for l in range(top + 1):
        if values[l] is None:
            coeffs.append(0)
            continue
        if counts[l] != model.units * model.sphere_count(l):
            return None
        coeffs.append(values[l])
    if all(isinstance(c, int) or (c.imag == 0 and float(c.real).is_integer()) for c in coeffs):
        return [int(c.real) if not isinstance(c, int) else c for c in coeffs]
    if all(not isinstance(c, complex) or c.imag == 0 for c in coeffs):
        return [float(c.real) if isinstance(c, complex) else float(c) for c in coeffs]
    return coeffs


def radial_convolve(rank: int, c1, c2, budget=None):
    """Sphere-coefficient expansion of the convolution of two radial
    functions on a rank-``rank`` free group.

    The product of a length-m and a length-n word has length m+n-2c
    after cancelling c letters; for fixed reduced output there are
    exactly 1, (q-1)q^(c-1), q^min(m,n) or (q+1)q^(m-1) factorizations
    (no, partial, one-sided full, or symmetric full cancellation),
    where q = 2*rank - 1.
    """
    if not c1 or not c2:
        return []
    if budget is not None:
        cost = len(c1) * len(c2) * min(len(c1), len(c2))
        if cost > budget:
            raise BudgetError(f"radial convolution cost {cost} exceeds budget {budget}",
                              required=cost, budget=budget)
    q = 2 * rank - 1
    out = [0] * (len(c1) + len(c2) - 1)
    for m, a in enumerate(c1):
        if a == 0:
            continue
        for n, b in enumerate(c2):
            if b == 0:
                continue
            ab = a * b
            top = min(m, n)
            for c in range(top + 1):
                if c == 0:
                    N = 1
                elif c < top:
                    N = (q - 1) * q ** (c - 1)
                elif m == n:
                    N = (q + 1) * q ** (m - 1)
                else:
                    N = q ** top
                out[m + n - 2 * c] += ab * N
    return out


def _radial_log_l2(backend: FreeGroup, coeffs, logscale: float) -> float:
    total = 0
    for l, c in enumerate(coeffs):
        if c != 0:
            total += abs(c) ** 2 * backend.sphere_count(l)
    if total == 0:
        return float("-inf")
    return 0.5 * math.log(total) + logscale


# -- power sequence ---------------------------------------------------------

@dataclass
class PowerSeq:
    """Normalized L2 norms of iterated convolution squares of ``f^* * f``."""

    entries: list  # rows: (n, value)
    n_max: int
    method: str

    def values(self) -> list[float]:
        return [v for _, v in self.entries]

    def csv_rows(self):
        return [("n", "value")] + [list(r) for r in self.entries]


def power_sequence_norm(f: CcFunction, n_max: int, mu: MeasureContext,
                        budget: int = DEFAULT_POWER_BUDGET) -> PowerSeq:
    """Square ``h = f^* * f`` by convolution ``n_max`` times and report
    ``|h_n|_2 ^ (1/(2*2^n))`` for each n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    model = f.model
    profile = radial_profile_of(f)
    entries = []
    if profile is not None:
        backend = model.backend
        star = [c.conjugate() if isinstance(c, complex) else c for c in profile]
        h = radial_convolve(backend.rank, star, profile, budget=budget)
        logscale = 0.0
        for n in range(1, n_max + 1):
            h = radial_convolve(backend.rank, h, h, budget=budget)
            logscale *= 2
            if h and not isinstance(h[0], int):
                peak = max(abs(c) for c in h)
                if peak > 1e120 or (peak != 0 and peak < 1e-120):
                    h = [c / peak for c in h]
                    logscale += math.log(peak)
            log_norm = _radial_log_l2(backend, h, logscale)
            value = 0.0 if log_norm == float("-inf") else math.exp(log_norm / (2 * 2 ** n))
            entries.append((n, value))
        return PowerSeq(entries=entries, n_max=n_max, method="radial")

    h = convolve(involution(f), f, budget=budget)
    for n in range(1, n_max + 1):
        try:
            h = convolve(h, h, budget=budget)
        except BudgetError as exc:
            raise BudgetError(f"power sequence exceeded budget at n={n}: {exc}",
                              required=exc.required, budget=exc.budget) from exc
        value = lp_norm(h, 2, mu) ** (1.0 / (2 * 2 ** n))
        entries.append((n, value))
    return PowerSeq(entries=entries, n_max=n_max, method="sparse")


# -- norm bound -------------------------------------------------------------

@dataclass
class NormBoundReport:
    """Truncated norm of ``alpha^k`` on the k-sphere against the overlap
    bound ``2 C (k+1) |f|_q`` with q the conjugate exponent of p."""

    alpha: float
    k: int
    p: float
    q: float
    overlap: float
    L: int
    lhs: float
    rhs: float
    passed: bool


def verify_norm_bound(model: GroupoidModel, mu: MeasureContext, alpha: float,
                      k: int, p: float, C: float, L: int = 6,
                      max_iter: int = 2000, tol: float = 1e-10,
                      budget=None, seed: int = 0) -> NormBoundReport:
    """Check the representation-norm bound on ``f = alpha^k * (k-sphere
    indicator)``: any truncated lower estimate must stay below
    ``2 C (k+1) |f|_q``."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    q = p / (p - 1.0)
    f = length_weighted(model, alpha, k, budget=budget)
    est = reduced_norm(f, L, max_iter=max_iter, tol=tol, budget=budget, seed=seed)
    rhs = 2.0 * C * (k + 1) * lp_norm(f, q, mu)
    passed = est.value <= rhs * (1 + 1e-9)
    return NormBoundReport(alpha=alpha, k=k, p=p, q=q, overlap=C, L=L,
                           lhs=est.value, rhs=rhs, passed=passed)
