"""Reduced-norm estimates for the convolution algebra.

``reduced_norm_at_unit`` compresses left convolution by ``f`` onto the
radius-L ball of a source fiber (matrix ``M[y, y'] = f(y y'^-1)``) and
estimates its largest singular value at each rung of an increasing ladder
of radii, a nondecreasing trace.  ``reduced_norm`` takes the largest over
units, and solves one for all when f's values do not depend on the range
unit; when they do and the top rung is dense, one stacked ``eigvalsh``
ranks the units and only those that can win run the ladder.  There are
two methods:

* ``"sphere_quotient"``, for a radial f with real coefficients >= 0 on a free
  backend: M is nonnegative and commutes with the root stabilizer of the
  tree, so its Perron vector is radial and each rung is the top eigenpair of
  an (L+1)-row sphere quotient S, by ``_tridiagonal_top`` when f's top
  sphere is at most 1, by dense ``eigh`` past it.  No ball is enumerated.
* ``"lanczos"`` otherwise, on M or ``M^H M`` read off one ball tree built at
  the top rung (see ``_operator``): ``eigh`` of the dense matrix at a rung of
  at most ``DENSE_ROWS`` rows, Lanczos from a random start drawn from
  ``seed`` past it, its tridiagonal T_k solved by ``_tridiagonal_top``.

``converged`` means the eigen-residual is at most ``tol * |theta|``;
``iterations`` counts Lanczos steps, 0 on the quotient and on dense rungs.

``power_sequence_norm`` reports ``|h_n|_2 ^ (1/(2*2^n))`` for
``h_n = (f^* * f)^(2^n)``, which climbs to the same norm from the algebra
side.  A sphere-symmetric f on a free backend runs on the banded sphere
quotient, one coefficient per sphere; any other f is squared by sparse
convolution.

``radial_ball_spectrum`` gives the whole spectrum of a real radial f's ball
operator, with multiplicities, from S and the root-stabilizer blocks of T
(``_radial_t``); ``kernels`` reads the ball Grams of radial kernels off it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CcFunction, convolve, involution, length_weighted, lp_norm
from .errors import BudgetError, PreconditionError, charge
from .model import FreeGroup, GroupoidModel, MeasureContext, as_int, as_list

DEFAULT_POWER_BUDGET = 10_000_000
DEFAULT_LADDER = (4, 6, 8, 10, 12)
UNIT_SAMPLE = 64  # reduced_norm solves a seeded sample of this many units beyond it
# rungs of at most this many rows are solved densely, the measured crossover:
# from 64 rows on, eigh with vectors takes a slower path (up to twice the
# time), and an operator that Lanczos settles in a few steps is cheaper there
DENSE_ROWS = 63
TRIDIAGONAL_ROW = 33  # float64-sized entries a tridiagonal sphere quotient holds a row
DENSE_OVERFLOW = "the coefficients of f overflow float64 in the dense eigensolve"
POWER_OVERFLOW = "the coefficients of f overflow float64 in the power sequence"


# -- Lanczos ----------------------------------------------------------------

def _apply(op, v):
    """``M @ v`` for an operator ``(cols, vals)`` of ``_operator``,
    accumulated in place one word of f at a time; ``vals[k]`` is word k's
    row of values, or its one value in every row."""
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


def _sturm(a, bb, x):
    """The pivots of ``x I - T = L D L^T``, T the symmetric tridiagonal of
    diagonal ``a`` and squared off-diagonal ``bb`` (``bb[0] = 0``), and
    ``trace((x I - T)^-1)``; None at the first pivot <= 0, when x is at most
    T's top eigenvalue (Sylvester; Barth, Martin and Wilkinson 1967)."""
    d, e, s, pivots = 1.0, 0.0, 0.0, []
    for ai, bi in zip(a, bb):
        t = bi / d
        d = x - ai - t
        if not d > 0:
            return None
        e = (1.0 + t * e) / d  # d_i' / d_i
        s += e
        pivots.append(d)
    return pivots, s


def _tridiagonal_top(a, b, upper: float):
    """The top eigenvalue theta of the symmetric tridiagonal T of diagonal
    ``a`` and off-diagonal ``b``, and a unit eigenvector, in pure Python at
    O(n) a pass.  T is scaled by a power of 2.  x = ``upper`` is raised until
    ``_sturm`` puts it above theta; Newton on ``det(x I - T)`` then descends,
    quadratically at a simple top and halving at a double one, until a step
    is at most eps or lands on theta (x is then raised back above it).  theta
    is the last Newton point; two inverse-iteration solves give the vector."""
    n, eps = len(a), 2.0 ** -52
    if not any(b):  # f = c chi_0 on the sphere quotient
        i = max(range(n), key=a.__getitem__)
        return a[i], [float(j == i) for j in range(n)]
    scale = math.ldexp(1.0, min(math.frexp(max(map(abs, [*a, *b])))[1], 1023))
    a, b = [v / scale for v in a], [v / scale for v in b]
    bb = [0.0] + [v * v for v in b]
    x, w, stepped, done = min(3.0, upper / scale), eps, False, False  # theta <= 3 (Gershgorin)
    while True:
        sturm = _sturm(a, bb, x)
        if sturm is None:  # step up by doubling amounts
            x, w, done = x + w, 2 * w, stepped
        elif (h := 1.0 / sturm[1]) <= eps or done:
            break
        else:
            x, w, stepped = x - h, eps, True
    d, y = sturm[0], [1.0 / (i + 1) for i in range(n)]  # a start with no symmetry
    for _ in range(2):
        for i in range(1, n):
            y[i] += b[i - 1] / d[i - 1] * y[i - 1]
        y = [v / p for v, p in zip(y, d)]
        for i in range(n - 2, -1, -1):
            y[i] += b[i] / d[i] * y[i + 1]
        norm = math.sqrt(math.fsum(v * v for v in y))
        y = [v / norm for v in y]
    return (x - h) * scale, y


def _lanczos(apply, n: int, max_iter: int, tol: float, seed: int):
    """Lanczos on a Hermitian operator A of order n, given as ``apply(v)``,
    from a seeded random start.  Only the three-term recurrence is kept, no
    basis: lost orthogonality adds ghost copies of converged Ritz values but
    no wrong ones (Paige).  Returns ``(|theta|, steps, residual, converged)``
    for the Ritz value theta of largest modulus, with residual
    ``beta_k |s_k|``, the norm of ``A y - theta y`` for its Ritz vector y.

    Every ``max(1, k // 10)`` steps ``eigvalsh`` of the tridiagonal T_k gives
    its ends until the larger in modulus stalls; then ``_tridiagonal_top``
    solves that end, of T_k or -T_k, and one more ``_sturm`` pass shows that
    the other end does not pass it, or that end is solved.  Overflow in the
    recurrence raises PreconditionError."""
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas, betas, beta, last, stalled, next_check = [], [], 0.0, None, False, 1
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
                    next_check = k + max(1, k // 10)
                    if not stalled:
                        low, high = np.linalg.eigvalsh(
                            np.diag(alphas) + np.diag(betas[:-1], -1))[[0, -1]].tolist()
                        sign, top = (1.0, high) if high >= -low else (-1.0, -low)
                        stalled = last is not None and abs(top - last) <= tol * top
                        last = top
                    if stalled or k == max_iter or beta == 0.0:
                        a = [sign * v for v in alphas]
                        top, y = _tridiagonal_top(a, betas[:-1], top * (1 + 4 * tol))
                        other = [-v for v in a]
                        if _sturm(other, [0.0] + [v * v for v in betas[:-1]], top) is None:
                            theta, z = _tridiagonal_top(other, betas[:-1], top)
                            if theta > top:
                                sign, top, y = -sign, theta, z
                        residual = beta * abs(y[-1])
                        if residual <= tol * top:
                            return top, k, residual, True
                w /= beta
                v_prev, v = v, w
    except FloatingPointError as exc:
        raise PreconditionError("the coefficients of f overflow float64 in the Lanczos "
                         f"recurrence ({exc})") from None
    return top, max_iter, residual, False


def _dense_matrix(op, hermitian: bool):
    """A = M (``hermitian``) or ``M^H M`` for the dense M of the operator
    ``op``, one per unit for a stack of labels: one fancy-index add per word
    of f into an (n, n + 1) array, whose pad column n is then dropped.  An A
    that overflows float64 raises PreconditionError."""
    cols, vals = op
    n = cols.shape[1]
    M = np.zeros((*vals.shape[1:-1], n, n + 1), dtype=np.result_type(vals, float))
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, a in zip(cols, vals):
            M[..., rows, c] += a
        M = M[..., :n]
        A = M if hermitian else M.conj().swapaxes(-1, -2) @ M
    if not np.isfinite(A).all():
        raise PreconditionError(DENSE_OVERFLOW)
    return A


def _dense(A, tol: float, index=None):
    """The ``_lanczos`` tuple with 0 steps for one eigenpair of the dense
    Hermitian A from ``eigh``: the one at ``index`` in ascending order, or
    the one of largest modulus.  A finite A near the float64 limit can still
    overflow the eigenvalue or residual, which raises PreconditionError."""
    thetas, ys = np.linalg.eigh(A)
    i = int(np.argmax(np.abs(thetas))) if index is None else index
    theta, y = float(thetas[i]), ys[:, i]
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(A @ y - theta * y))
    if not math.isfinite(theta + residual):
        raise PreconditionError(DENSE_OVERFLOW)
    return abs(theta), 0, residual, residual <= tol * abs(theta)


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
    method = "lanczos"  # not a field, so Lanczos reports keep their keys

    def csv_rows(self):
        return [("L", "value", "iterations", "residual", "converged"), *self.trace]


@dataclass
class QuotientEstimate(NormEstimate):
    """A sphere-quotient estimate; ``limit``, the exact norm of f, bounds it."""

    limit: float = math.inf
    method: str = "sphere_quotient"


def _truncation_ladder(L: int, ladder) -> list[int]:
    if ladder is not None:
        out = sorted({as_int(x) for x in as_list(ladder)})
        if not out or out[-1] != L:
            raise PreconditionError("ladder must be nonempty and end at L")
    else:
        out = sorted({min(x, L) for x in DEFAULT_LADDER} | {L})
    if out[0] < 0:
        raise PreconditionError("truncation radii must be >= 0")
    return out


def _operator(f: CcFunction, right, ns):
    """Left convolution by f on the source-fiber balls of ``ns`` rows, read
    off one ball tree ``right`` that holds the largest: basis element i is
    ``(u.w_i, w_i^-1)``, and ``M[i, j] = f(u.w_i, w_i^-1 w_j)``.  Returns
    ``(at, unit_free, self_adjoint)``: ``at(r, units)`` is the ``(cols, vals)`` of rung r at
    the tree's unit labels with ``M[i, cols[k, i]] = vals[k, i]`` for the words
    x_k of f, in f's order; column n is a zero pad.  A (U, rows) stack of
    labels gives ``vals`` of shape (words, U, n).  When ``unit_free``, f's
    values do not depend on the range unit, and neither do f^*'s: ``vals[k]``
    is x_k's one value, and ``at(r, None)`` needs no labels.  ``self_adjoint``
    is f^* = f, tested on the value table: every x_k^-1 is a word of f, and
    its row at the units ``u.x_k`` is the conjugate of x_k's row at u.

    Only the walks of the x_k at the top rung are kept: rung r's columns are
    their first n clamped at n, built when asked for, since a reduced path
    never re-enters a ball it has left and a finite backend's tree is the
    whole group.  Row sums follow f's word order, fixed for a given f."""
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
    unit_free = bool(np.all(table == table[:, :1]))
    row = dict(zip(by_word, range(len(by_word))))
    inverse = [row.get(f.model.backend.inv(x)) for x in by_word]
    self_adjoint = None not in inverse
    for k, x in enumerate(by_word if self_adjoint else ()):
        moved = np.arange(f.model.units)  # u.x_k for every unit u
        for c in f.model.backend.spell(x):
            moved = f.model.letter_perms[c, moved]
        if not np.array_equal(table[inverse[k], moved], table[k].conj()):
            self_adjoint = False
            break

    def at(r: int, units):
        n = ns[r]
        vals = table[:, 0] if unit_free else table[:, units[..., :n]]
        if vals.dtype.kind == "c" and not vals.imag.any():
            vals = vals.real.copy()
        return np.minimum(top[:, :n], n), vals
    return at, unit_free, self_adjoint


class _Solves:
    """The ladder, ball tree and operators of one ``f``, shared between units,
    for a dense or Lanczos solve at every rung; the tree is built and charged
    at the top rung."""

    estimate = NormEstimate

    def __init__(self, f: CcFunction, ladder: list, max_iter: int, tol: float,
                 seed: int, budget):
        self.ladder = ladder
        self.parent, self.gen, right = f.model.ball_tree(ladder[-1], budget)
        ns = [f.model.ball_count(Lk) for Lk in ladder]
        self.rows = ns[-1]
        self.op, self.unit_free, self_adjoint = _operator(f, right, ns)
        self.op_h = self.op if self_adjoint else _operator(involution(f), right, ns)[0]
        self.args = (max_iter, tol, seed)

    def rung(self, r: int, units):
        """``(value, iterations, residual, converged)`` for the largest
        singular value of f's operator M at rung r and the unit labels
        ``units``: on M when f is self-adjoint, on ``M^H M`` otherwise; dense
        up to ``DENSE_ROWS`` rows, by Lanczos past them."""
        op = self.op(r, units)
        n = op[0].shape[1]
        hermitian = self.op_h is self.op
        if n <= DENSE_ROWS:
            theta, *rest = _dense(_dense_matrix(op, hermitian), self.args[1])
        elif hermitian:
            return _lanczos(lambda v: _apply(op, v), n, *self.args)
        else:
            # M^H is the operator of f^* on the same ball: f^*(u.w_j, w_j^-1 w_i)
            # is the conjugate of f(u.w_i, w_i^-1 w_j)
            op_h = self.op_h(r, units)
            theta, *rest = _lanczos(lambda v: _apply(op_h, _apply(op, v)), n, *self.args)
        return (theta if hermitian else math.sqrt(theta), *rest)

    def contenders(self, model: GroupoidModel, units: list) -> list:
        """The units, in order, whose top-rung value can be the largest: at a
        dense top rung, those within ``1e-9 * max(1, best)`` of the best by one
        ``eigvalsh`` of the stacked A = M or ``M^H M`` of every unit, which
        agrees with each unit's ``eigh`` within about n eps |A| (at most
        1.3e-15 relative measured at 53 rows).  Every unit at a Lanczos top
        rung."""
        if self.rows > DENSE_ROWS:
            return units
        hermitian = self.op_h is self.op
        labels = model.unit_labels(np.array(units), self.parent, self.gen).T
        A = _dense_matrix(self.op(len(self.ladder) - 1, labels), hermitian)
        theta = np.abs(np.linalg.eigvalsh(A)).max(axis=1)
        value = theta if hermitian else np.sqrt(theta)
        if not np.isfinite(value).all():  # a finite A whose top eigenvalue overflows
            raise PreconditionError(DENSE_OVERFLOW)
        best = float(value.max())
        return [u for u, v in zip(units, value.tolist()) if v >= best - 1e-9 * max(1.0, best)]


class _Quotient:
    """The (L+1)-row sphere quotient S of ``f = sum_k profile[k] chi_k`` on
    F_rank, held as the bands of ``_radial_bands`` at radius L; ``banded``
    past the tridiagonal when f's top sphere is past 1.  ``limit`` is
    ``sum_k profile[k] s_k phi(k)`` for Haagerup's spherical function
    ``phi(k) = (1 + k(q-1)/(q+1)) q^(-k/2)``.  Charged before any band is
    built: (L+1)^2 entries for dense rungs, else ``TRIDIAGONAL_ROW`` a row,
    which at L = 10^6 covered 203 B a row traced at peak and 257 B of RSS."""

    unit_free = True

    def __init__(self, rank: int, profile, ladder: list, tol: float, budget):
        L, self.banded = ladder[-1], len(profile) > 2
        row = L + 1 if self.banded else TRIDIAGONAL_ROW
        charge(f"sphere quotient of radius {L}", row * (L + 1), "entries", budget)
        q, limit = 2 * rank - 1, 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k, c in enumerate(profile):
                limit += c * (1 + k * (q - 1) / (q + 1)) * (
                    2 * rank * math.exp((k / 2 - 1) * math.log(q)) if k else 1.0)
            bands = _radial_bands(rank, profile, L)
            # S >= 0: S y is finite for every unit y when the row sums are
            if not (np.isfinite(radial_convolve(bands, np.ones(L + 1))).all()
                    and math.isfinite(limit)):
                raise PreconditionError(
                    "the coefficients of f overflow float64 in the sphere quotient")
        self.bands, self.limit, self.ladder, self.tol = bands, limit, ladder, tol

    def rung(self, r: int, units):
        """The Perron root of S's rung-r block, its last eigenpair (on a
        bipartite S the first can be an ulp larger in modulus): by ``_dense``
        when banded, else by ``_tridiagonal_top`` below ``limit``."""
        n = self.ladder[r] + 1
        if self.banded:
            return _dense(_band_matrix(self.bands, n), self.tol, -1)
        bands = [(d, w[:n - d]) for d, w in self.bands if d < n]
        diagonals = dict(bands)  # lists passed on, not kept: the solve scales copies
        theta, y = _tridiagonal_top(diagonals.get(0, np.zeros(n)).tolist(),
                                    diagonals.get(1, np.zeros(n - 1)).tolist(), self.limit)
        y = np.array(y)
        residual = math.hypot(*(radial_convolve(bands, y) - theta * y))  # hypot does not overflow
        return theta, 0, residual, residual <= self.tol * abs(theta)

    def estimate(self, **fields):
        return QuotientEstimate(limit=self.limit, **fields)


def _solver(f: CcFunction, L: int, ladder, max_iter: int, tol: float, seed: int, budget):
    """The shared solves of ``f``: the sphere quotient when f is radial with
    real coefficients >= 0 on a free backend, dense or Lanczos otherwise."""
    if not (tol >= 0 and max_iter >= 1):
        raise PreconditionError(f"tol must be >= 0 and max_iter >= 1, got {tol} and {max_iter}")
    ladder = _truncation_ladder(L, ladder)
    profile = radial_profile_of(f)
    if profile and all(not isinstance(c, complex) and c >= 0 for c in profile):
        return _Quotient(f.model.backend.rank, profile, ladder, tol, budget)
    return _Solves(f, ladder, max_iter, tol, seed, budget)


def reduced_norm_at_unit(f: CcFunction, u: int, L: int, max_iter: int = 2000,
                         tol: float = 1e-10, ladder=None, budget=None, seed: int = 0,
                         _solves=None) -> NormEstimate:
    """Truncated-convolution norm of ``f`` on the source fiber at ``u``,
    over an increasing ladder of truncation radii ending at L.  Each rung
    is one top eigenpair of the sphere quotient or of the dense operator, or
    one Lanczos solve started from ``seed``.  ``reduced_norm`` passes
    ``_solves``, which carries the ladder, the solver settings and what is
    shared between units."""
    f.model.unit_element(u)
    solves = _solver(f, L, ladder, max_iter, tol, seed, budget) if _solves is None else _solves
    units = None if solves.unit_free else f.model.unit_labels(u, solves.parent, solves.gen)
    trace = [(Lk, *solves.rung(r, units)) for r, Lk in enumerate(solves.ladder)]
    monotone = all(b[1] >= a[1] - 1e-8 for a, b in zip(trace, trace[1:]))
    last = trace[-1]
    return solves.estimate(value=last[1], L=last[0], unit=u, iterations=last[2],
                           residual=last[3], converged=last[4], trace=trace,
                           monotone=monotone, units_checked=[u])


def reduced_norm(f: CcFunction, L: int, max_iter: int = 2000, tol: float = 1e-10,
                 ladder=None, budget=None, seed: int = 0) -> NormEstimate:
    """Largest truncated-norm estimate over units (all units, or a sample of
    ``UNIT_SAMPLE`` drawn from ``seed`` when there are more).  When f's values
    do not depend on the range unit, every unit has the same operator, so
    only the first is solved; otherwise only ``_Solves.contenders`` are."""
    model = f.model
    if model.units <= UNIT_SAMPLE:
        units = list(range(model.units))
    else:
        rng = np.random.default_rng(seed)
        units = sorted(rng.choice(model.units, size=UNIT_SAMPLE, replace=False).tolist())
    solves = _solver(f, L, ladder, max_iter, tol, seed, budget)
    # the first unit to reach the largest value
    best = max((reduced_norm_at_unit(f, u, L, _solves=solves)
                for u in (units[:1] if solves.unit_free else solves.contenders(model, units))),
               key=lambda est: est.value)
    best.units_checked = units
    return best


# -- radial representation on free backends ---------------------------------

def radial_profile_of(f: CcFunction):
    """Per-sphere coefficients of ``f`` when it is sphere-symmetric over
    every fiber of a free backend, as floats, or as complex numbers when
    any is complex; None otherwise."""
    model = f.model
    if not isinstance(model.backend, FreeGroup):
        return None
    values, counts = {}, {}  # per word length: f's value there and its support size
    for g, v in f.items():
        l = len(g.word)
        if values.setdefault(l, v) != v:
            return None
        counts[l] = counts.get(l, 0) + 1
    if any(n != model.units * model.sphere_count(l) for l, n in counts.items()):
        return None
    coeffs = [complex(values.get(l, 0)) for l in range(max(values, default=-1) + 1)]
    return coeffs if any(c.imag for c in coeffs) else [c.real for c in coeffs]


def _radial_bands(rank: int, profile, R: int) -> list:
    """The upper bands ``(d, w)``, ``S[m, m + d] = w[m]``, of the symmetric
    sphere quotient ``S[m, n] = sum_k profile[k] N sqrt(s_n / s_m)`` (s_m the
    sphere sizes) of ``f = sum_k profile[k] chi_k`` on F_rank at radius R: a
    word of length n = m + k - 2c is the product of N words of lengths m and
    k with c letters cancelled, N = 1 at c = 0, q^c at m = c, else
    (q-1) q^(c-1) (q = 2 rank - 1).  So each band d = k - 2c >= 0 is constant
    but at m = c and m = 0; the k are summed in ascending order, one band at
    a time in Python floats, which round as the float64 entries do."""
    q = 2 * rank - 1
    log_q, log_2r_q = math.log(q), math.log(2 * rank) - math.log(q)
    dtype = np.result_type(float, *profile)
    bands = []
    for d in range(min(len(profile) - 1, R) + 1):
        coefs = profile[d::2][:R + 1 - d]  # profile[d + 2c] for c <= R - d
        if not any(coefs):
            continue
        # sqrt(s_(m+d) / s_m) = q^(d/2), or sqrt(2 rank q^(d-1)) at m = 0 < d
        root = math.exp(d * log_q / 2)
        first = math.exp((d * log_q + log_2r_q) / 2) if d else root
        head, total = [], 0.0  # w[m] sums the terms of every c < m, then adds that of c = m
        for c, coef in enumerate(coefs):
            if coef:
                head.append(total + coef * q ** c * (first if c == 0 else root))
                total = total + coef * ((q - 1) * q ** (c - 1) if c else 1) * root
            else:
                head.append(total)
        w = np.full(R + 1 - d, total, dtype=dtype)
        w[:len(head)] = head
        bands.append((d, w))
    return bands


def _band_matrix(bands, n: int) -> np.ndarray:
    """The leading n-row block of the symmetric matrix whose upper bands
    ``(d, w)`` are ``bands``, as a dense array."""
    S = np.zeros((n, n), dtype=np.result_type(float, *(w for _, w in bands)))
    for d, w in bands:
        if d < n:  # S[m, m + d] and S[m + d, m], m < n - d
            S.flat[d:(n - d) * (n + 1):n + 1] = S.flat[d * n::n + 1] = w[:n - d]
    return S


def _radial_t(rank: int, profile, L: int) -> np.ndarray:
    """The L-row matrix T of ``f = sum_k profile[k] chi_k`` (real) on F_rank
    on the functions of the radius-L ball that sum to 0 over the children of a
    vertex v at depth d < L and depend on the distance below v: every such
    piece is held by T's leading (L - d)-row block (Figa-Talamanca and
    Nebbia 1991).  With q = 2 rank - 1, e = |m - n| and s = min(m, n),
    ``T[m, n] = q^(e/2) (c_e + sum_{i=1..s} (q-1) q^(i-1) c_(e+2i) - q^s c_(e+2s+2))``,
    summed along i by ``cumsum`` one band e per row of a slice table, so the
    bracket is exact where its terms are integers, as at c = 1."""
    q = 2 * rank - 1
    c = np.zeros(max(3 * L + 2, len(profile)))
    c[:len(profile)] = profile
    e, i = np.arange(L)[:, None], np.arange(L)
    power = float(q) ** i
    steps = np.where(i > 0, (q - 1) * power / q, 0.0) * c[e + 2 * i]
    bracket = c[e] + np.cumsum(steps, axis=1) - power * c[e + 2 * i + 2]
    m, n = np.indices((L, L))
    e, s = abs(m - n), np.minimum(m, n)
    return math.sqrt(q) ** e * bracket[e, s]


def radial_ball_spectrum(rank: int, profile, L: int) -> list:
    """``(eigenvalues, multiplicity)`` of the blocks of ``f = sum_k
    profile[k] chi_k`` (real) on F_rank, compressed to the radius-L ball
    ``M[x, y] = f(x^-1 y)``: the (L+1)-row sphere quotient S of
    ``_radial_bands`` once, and the leading (L - d)-row block of ``_radial_t``
    q times at d = 0 and ``2 rank q^(d-1) (q-1)`` times at depth d >= 1, none
    on Z.  The multiplicities sum to ``ball_count(L)``.  Each block is solved
    by ``eigvalsh``."""
    q = 2 * rank - 1
    T = _radial_t(rank, profile, L)
    blocks = [(_band_matrix(_radial_bands(rank, profile, L), L + 1), 1)]
    blocks += [(T[:L - d, :L - d], q if d == 0 else 2 * rank * q ** (d - 1) * (q - 1))
               for d in range(L)]
    return [(np.linalg.eigvalsh(B), mult) for B, mult in blocks if mult]


def radial_convolve(bands, y):
    """``S y`` for the symmetric banded S of ``_radial_bands``: the convolution
    by f of a radial function g, in the coordinates ``y_l = g_l sqrt(s_l)``
    whose Euclidean norm is ``|g|_2``, on spheres 0..R (``len(y) = R + 1``).
    The power sequence and the sphere quotient's rungs multiply by S here."""
    out = np.zeros(len(y), dtype=np.result_type(y, *(w for _, w in bands)))
    for d, w in bands:
        out[:len(w)] += w * y[d:]
        if d:
            out[d:] += w * y[:len(w)]
    return out


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
    """``|h_n|_2 ^ (1/(2*2^n))`` for ``h_n = (f^* * f)^(2^n)``, n = 1..n_max.
    Radial functions commute, so for a radial f on a free backend that is
    ``|S^j e_0| ^ (1/j)``, j = 2^(n+1), for f's sphere quotient S at the
    radius R = 2^(n_max+1) K (K = ``len(profile) - 1``) no power passes: j
    renormalized banded products, whose (R+1)(2K+1) multiply-adds each are
    charged to ``budget`` before any band is built.  Any other f squares h
    by sparse convolution, each square charged on its own, as ``2^E h`` scaled
    by ``_rescaled``.  PreconditionError for an n_max past 1022, as 2^(n_max+1)
    then leaves the float range, and for a norm, a value or a part of f that
    is not a finite float."""
    if not 1 <= n_max <= 1022:
        raise PreconditionError("n_max must lie in 1..1022")
    profile = radial_profile_of(f)
    entries = []
    if profile is not None:
        K = max(len(profile) - 1, 0)
        R = 2 ** (n_max + 1) * K
        charge("radial power sequence", 2 ** (n_max + 1) * (R + 1) * (2 * K + 1),
               "multiply-adds", budget)
        bands = _radial_bands(f.model.backend.rank, profile, R)
        y, logs = np.eye(1, R + 1)[0], []  # e_0, and log |S^j e_0| = fsum(logs)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, 2 ** (n_max + 1) + 1):
                y = radial_convolve(bands, y)
                norm = float(np.linalg.norm(y))
                if not math.isfinite(norm):
                    raise PreconditionError(POWER_OVERFLOW)
                logs.append(math.log(norm) if norm else -math.inf)  # norm 0 only when f = 0
                y /= norm or 1.0
                y[abs(y) < np.finfo(float).tiny] = 0  # subnormal tails: no digit, much time
                if j > 2 and j & (j - 1) == 0:  # j = 2^(n+1)
                    entries.append((j.bit_length() - 2, math.exp(math.fsum(logs) / j)))
        return PowerSeq(entries=entries, n_max=n_max, method="radial")

    f, s = _rescaled(f)
    h, E = _rescaled(convolve(involution(f), f, budget=budget))
    E += 2 * s  # the true h is 2^E h
    for n in range(1, n_max + 1):
        try:
            h = convolve(h, h, budget=budget)
        except BudgetError as exc:
            raise BudgetError(f"power sequence exceeded budget at n={n}: {exc}",
                              required=exc.required, budget=exc.budget) from exc
        h, e = _rescaled(h)
        E = 2 * E + e
        # |2^E h|^(1/d) = |h|^(1/d) 2^(r/d) 2^k for E = k d + r; |h|^(1/d) at E = 0
        k, r = divmod(E, d := 2 * 2 ** n)
        try:
            entries.append((n, math.ldexp(lp_norm(h, 2, mu) ** (1.0 / d) * 2.0 ** (r / d), k)))
        except OverflowError:  # the value itself passes the largest float
            raise PreconditionError(POWER_OVERFLOW) from None
    return PowerSeq(entries=entries, n_max=n_max, method="sparse")


def _rescaled(h: CcFunction):
    """``(2^-e h, e)``, whose largest real or imaginary part lies in [1/2, 1), when
    h's leaves [2^-400, 2^400], else ``(h, 0)``: a square and norm of it are finite."""
    parts = [abs(x) for v in h.data.values() for x in (v.real, v.imag)]
    if not all(map(math.isfinite, parts)):  # as a sum of f's entries can be
        raise PreconditionError(POWER_OVERFLOW)
    if not (top := max(parts, default=0.0)) or 2.0 ** -400 <= top <= 2.0 ** 400:
        return h, 0
    e = max(math.frexp(top)[1], -1000)  # 2^1000 is a float, 2^1074 is not
    return h * 2.0 ** -e, e


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
    ``2 C (k+1) |f|_q``, and ``passed`` is ``lhs <= rhs`` on the two floats."""
    if p < 2:
        raise PreconditionError("p must be >= 2")
    if k < 0:
        raise PreconditionError("k must be >= 0")
    q = p / (p - 1.0)
    f = length_weighted(model, alpha, k, budget=budget)
    est = reduced_norm(f, L, max_iter=max_iter, tol=tol, budget=budget, seed=seed)
    rhs = 2.0 * C * (k + 1) * lp_norm(f, q, mu)
    passed = est.value <= rhs
    return NormBoundReport(alpha=alpha, k=k, p=p, q=q, overlap=C, L=L,
                           lhs=est.value, rhs=rhs, passed=passed)
