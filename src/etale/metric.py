"""Word-metric geometry of the fibers: growth statistics, four-point
hyperbolicity defects, overlap constants, and the band estimate for
convolutions against sphere-supported functions.

Every fiber of an action groupoid carries the word metric
``d(x, y) = length(x^-1 y)`` of the group backend, so fiberwise
quantities are computed at the group level once and are identical
across units.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import CcFunction, convolve
from .errors import GrowthHypothesisError, NonComposableError, PreconditionError, charge
from .model import FreeGroup, GroupoidElement, GroupoidModel

DEFAULT_QUADRUPLE_BUDGET = 100_000_000


def fiber_distance(model: GroupoidModel, x: GroupoidElement, y: GroupoidElement) -> int:
    """Distance ``length(x^-1 y)`` between elements of a common range fiber."""
    if x.unit != y.unit:
        raise NonComposableError("fiber distance needs elements with a common range unit")
    return model.backend.length(model.backend.mul(model.backend.inv(x.word), y.word))


# -- growth -----------------------------------------------------------------

@dataclass
class GrowthReport:
    """Sphere/ball counts with certified exponential envelopes.

    ``envelope_r`` certifies ``sphere(k) <= envelope_r**k`` and
    ``(fit_d, fit_r)`` certify ``ball(k) >= fit_d * fit_r**k`` on
    ``k_min <= k <= k_max``.  ``sphere_ratio`` is the consecutive
    sphere-count ratio when it is exactly constant on the tail
    (integer arithmetic), which pins the growth rate itself rather
    than a finite-range envelope.
    """

    k_min: int
    k_max: int
    sphere_counts: list
    ball_counts: list
    envelope_r: float
    fit_d: float
    fit_r: float
    sphere_ratio: float | None
    ratio_stabilized: bool
    saturated: bool
    subexponential: bool
    certified_upper: bool
    certified_lower: bool

    def csv_rows(self):
        rows = [("k", "sup_sphere", "inf_ball")]
        for k in range(self.k_max + 1):
            rows.append((k, int(self.sphere_counts[k]), int(self.ball_counts[k])))
        return rows


def exact_sphere_ratio(spheres, k_min: int = 1) -> Fraction | None:
    """The ratio ``spheres[k+1] / spheres[k]`` in exact arithmetic when it is
    one constant over ``k_min <= k < K`` (at least two ratios, no empty
    sphere past k = 0), else None."""
    K = len(spheres) - 1
    if K - k_min < 2 or 0 in spheres[1:]:
        return None
    ratios = {Fraction(spheres[k + 1], spheres[k]) for k in range(k_min, K)}
    return ratios.pop() if len(ratios) == 1 else None


def _sign(count: int, c: float, r: float, k: int) -> int:
    """The sign of ``count - c * r**k`` for positive count, c and r, exact:
    from logs where they differ by more than 1e-14 (about 45 eps) of their
    sum of moduli, which bounds the rounding of the three logs and k's
    product, and in integers at a near-tie."""
    logs = (math.log(count), math.log(c), k * math.log(r))
    gap = logs[0] - logs[1] - logs[2]
    if abs(gap) > 1e-14 * (1 + sum(map(abs, logs))):
        return 1 if gap > 0 else -1
    (cn, cd), (rn, rd) = c.as_integer_ratio(), r.as_integer_ratio()
    exact = count * cd * rd ** k - cn * rn ** k
    return (exact > 0) - (exact < 0)


def charge_radii(model: GroupoidModel, what: str, K: int, budget=None,
                 printed: bool = False) -> None:
    """Refuse ``what``, a scan of the exact sphere counts of radii 0..K, before
    any count is formed: past ``budget`` (None: the enumeration default)
    radii; when the counts are ``printed``, past ``budget`` digits of the
    2 (K + 1) sphere and ball counts, about ``sum_k log10(count_k)``:
    ``K (K + 1) log10 q`` on a free backend with q = 2 rank - 1 >= 3, else at
    most ``log10 ball_count(K)`` a count; or where the ball count of radius K
    has more digits than Python prints (``sys.get_int_max_str_digits()``, 0
    for no limit).  That count is formed only where ``K log10(q)`` is within
    the limit, and it is compared with ``10 ** limit`` only past
    ``2 ** (3.32 limit)``, just below that."""
    charge(f"{what} of radius {K}", K + 1, "radii", budget)
    q = 2 * model.backend.rank - 1 if isinstance(model.backend, FreeGroup) else 1
    if printed:
        digits = (K * (K + 1) * math.log10(q) if q > 1
                  else 2 * (K + 1) * math.log10(model.ball_count(K)))
        charge(f"{what} of radius {K}", math.ceil(digits), "digits", budget)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (q > 1 and K > limit / math.log10(q) or (
            (count := model.ball_count(K)).bit_length() > 3.32 * limit and count >= 10 ** limit)):
        raise PreconditionError(f"the ball count of radius {K} has more than {limit} digits, "
                                "past Python's limit for printing an integer")


def growth_stats(model: GroupoidModel, K: int, k_min: int = 1, budget=None) -> GrowthReport:
    """Growth data of the fibers up to radius K with certified envelopes;
    K and the digits of the counts are charged by ``charge_radii`` before any
    count is formed."""
    if not 1 <= k_min < K:
        raise PreconditionError("need 1 <= k_min < K")
    charge_radii(model, "growth table", K, budget, printed=True)
    spheres = [model.sphere_count(k) for k in range(K + 1)]
    if not any(spheres[k_min:]):
        raise GrowthHypothesisError(f"no sphere of radius {k_min}..{K} is nonempty: the fibers "
                                    f"end at radius {model.backend.max_radius}")
    balls = [model.ball_count(k) for k in range(K + 1)]

    # each envelope is rounded outward an ulp at a time until the printed
    # floats satisfy it exactly at every k
    envelope_r = math.exp(max(math.log(spheres[k]) / k
                              for k in range(k_min, K + 1) if spheres[k] > 0))
    for k in range(k_min, K + 1):
        while spheres[k] and _sign(spheres[k], 1.0, envelope_r, k) > 0:
            envelope_r = math.nextafter(envelope_r, math.inf)

    ks = np.arange(k_min, K + 1, dtype=float)
    log_balls = np.array([math.log(balls[k]) for k in range(k_min, K + 1)])
    slope, intercept = np.polyfit(ks, log_balls, 1)
    fit_r = math.exp(slope)
    fit_d = min(math.exp(math.log(balls[k]) - slope * k) for k in range(k_min, K + 1))
    for k in range(k_min, K + 1):
        while _sign(balls[k], fit_d, fit_r, k) < 0:
            fit_d = math.nextafter(fit_d, 0.0)

    saturated = any(spheres[k] == 0 for k in range(1, K + 1))
    ratio = exact_sphere_ratio(spheres, k_min)
    ratio_stabilized = ratio is not None
    sphere_ratio = None if ratio is None else float(ratio)

    subexponential = saturated or (ratio_stabilized and sphere_ratio <= 1.0) or fit_r <= 1.0
    return GrowthReport(
        k_min=k_min, k_max=K, sphere_counts=spheres, ball_counts=balls,
        envelope_r=envelope_r, fit_d=fit_d, fit_r=fit_r,
        sphere_ratio=sphere_ratio, ratio_stabilized=ratio_stabilized,
        saturated=saturated, subexponential=subexponential,
        certified_upper=math.isfinite(envelope_r), certified_lower=fit_d > 0)


# -- hyperbolicity ----------------------------------------------------------

@dataclass
class DeltaEstimate:
    """Four-point defect of a ball; ``quadruples = (n(n+1)/2)^2`` bounds its
    base-point scan, which runs on finite backends only."""

    delta: float
    radius: int
    unit: int
    n_points: int
    quadruples: int


def distance_matrix(model: GroupoidModel, points) -> np.ndarray:
    """Word-metric distances ``length(x_i^-1 x_j)`` between the points, as
    int16; distances above 16,383 are refused, so sums of two fit too."""
    D = model.backend.pair_lengths([[g.word for g in points]])[0]
    if D.max(initial=0) > 16_383:
        raise PreconditionError("distances above 16383 do not fit the int16 metric")
    return D.astype(np.int16)


def _four_point_defect(D: np.ndarray) -> int:
    """Largest excess of the top pair-sum ``D[a, b] + D[c, d]`` over the
    second, over all quadruples of the metric ``D``; 0 if none is positive.

    With ``P = 2(x|y)_w = D[w, x] + D[w, y] - D[x, y]``, the pair-sums of
    ``{w, x, y, z}`` are ``D[w, x] + D[w, y] + D[w, z]`` less its three
    Gromov products, so the excess is the middle product less the smallest:
    the largest ``min(P[x, z], P[y, z]) - P[x, y]``.  Each base point ``w``
    takes ``x, y, z`` from ``w`` on, one (m, m) step in D's dtype per ``z``:
    ``sum_w (n - w)^3 = (n(n+1)/2)^2`` tuples.  A 0 defect at ``w = 0`` is 0
    at every base point (Gromov's lemma), which ends the scan after ``n^3``
    on a 0-hyperbolic metric.  ``hyperbolicity_delta`` runs it on finite
    backends only."""
    best = 0
    for w in range(len(D)):
        P = D[w, w:, None] + D[w, w:] - D[w:, w:]
        for z in range(len(P)):
            best = max(best, int((np.minimum(P[:, z, None], P[z]) - P).max()))
        if best == 0:
            break
    return best


def hyperbolicity_delta(model: GroupoidModel, u: int, radius: int,
                        quad_budget: int = DEFAULT_QUADRUPLE_BUDGET,
                        budget=None) -> DeltaEstimate:
    """Largest four-point defect over all quadruples in the radius-``radius``
    ball of the fiber at ``u``: the excess of the largest pair-sum over the
    second largest.

    On a free backend every fiber is a tree, and trees are 0-hyperbolic
    (Gromov, *Hyperbolic groups*, 1987), so δ is 0 by theorem: the ball is
    charged to ``budget`` but neither enumerated nor scanned.  On a finite
    backend the n-point ball's base-point scan visits at most
    ``quadruples = (n(n+1)/2)^2`` tuples, charged to ``quad_budget`` from
    ``ball_count`` before the ball is enumerated; ``budget`` bounds its size."""
    if radius < 0:
        raise PreconditionError("delta radius must be >= 0")
    tree = isinstance(model.backend, FreeGroup)
    if tree:
        model._charge(radius, budget, u)
    n = model.ball_count(radius)
    quadruples = (n * (n + 1) // 2) ** 2
    best = 0
    if not tree:
        charge(f"four-point scan of radius {radius}", quadruples, "quadruples", quad_budget)
        best = _four_point_defect(distance_matrix(model, model.ball(u, radius, budget)))
    return DeltaEstimate(delta=float(best), radius=radius, unit=u,
                         n_points=n, quadruples=quadruples)


def overlap_constant(model: GroupoidModel, delta: float) -> int:
    """Ball count at radius ``ceil(2*delta + 1)``: bounds how many elements
    of a fiber can sit in a common thin neighborhood."""
    if delta < 0:
        raise PreconditionError("delta must be >= 0")
    radius = math.ceil(2 * delta + 1)
    return int(model.ball_count(radius))


# -- band estimate ----------------------------------------------------------

@dataclass
class BandReport:
    """Support-band and fiberwise l1 control for a convolution product."""

    k: int
    n: int
    unit: int
    overlap: float
    band: tuple
    rows: list = field(default_factory=list)  # (m, l1_mass, bound, ok)
    outside_mass: float = 0.0
    passed: bool = False


def band_check(f: CcFunction, g: CcFunction, k: int, n: int, u: int,
               C: float, tol: float = 1e-9, budget=None) -> BandReport:
    """Check that ``f * g`` vanishes outside word lengths ``|k-n| .. k+n``
    and that each length slice has range-fiber l1 mass at most
    ``C * |f|_l1`` on the fiber at ``u``.

    Preconditions: ``supp f`` inside the length-k sphere, ``supp g``
    inside the length-n sphere, ``|g| <= 1`` pointwise, with k, n >= 0.

    ``f * g`` is ``convolve``'s product, whose pair products are charged to
    ``budget`` (None: the enumeration default) before any is formed, and the
    masses are read in its order.
    """
    model = f.model
    if k < 0 or n < 0:
        raise PreconditionError("band check needs sphere radii k, n >= 0")
    model.unit_element(u)  # range-checks u
    for x in f.support():
        if model.length(x) != k:
            raise PreconditionError(f"support of f must sit at word length {k}")
    for x in g.support():
        if model.length(x) != n:
            raise PreconditionError(f"support of g must sit at word length {n}")
    if g.max_abs() > 1 + 1e-12:
        raise PreconditionError("g must be bounded by 1 in absolute value")

    h = convolve(f, g, budget)
    lo, hi = abs(k - n), k + n
    outside, slices = [], {m: [] for m in range(lo, hi + 1)}
    for x, v in h.items():
        m = model.length(x)
        if not lo <= m <= hi:
            outside.append(abs(v))
        elif x.unit == u:
            slices[m].append(abs(v))
    outside = sum(outside)
    bound = C * f.fiber_l1(u)
    masses = {m: sum(vals) for m, vals in slices.items()}
    rows = [(m, mass, bound, mass <= bound + tol * max(1.0, bound)) for m, mass in masses.items()]
    passed = all(ok for *_, ok in rows) and outside == 0.0
    return BandReport(k=k, n=n, unit=u, overlap=C, band=(lo, hi),
                      rows=rows, outside_mass=outside, passed=passed)
