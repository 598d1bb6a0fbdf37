"""Extension analysis for length-decaying states.

The state paired against the kernel ``alpha^length`` extends to the
p-completion of the convolution algebra exactly when the weighted
sphere masses ``alpha^k |sphere_k|^(1/p)`` stay controlled; with an
exactly stabilized sphere-count ratio ``rho`` the dichotomy is sharp
at ``alpha = rho^(-1/p)``.  Verdicts here are certified by geometric
majorants/minorants built from exact integer sphere counts, never by
bare numeric partial sums; anything else is reported Inconclusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import GrowthHypothesisError, PreconditionError
from .metric import (GrowthReport, charge_radii, exact_sphere_ratio, hyperbolicity_delta,
                     overlap_constant)
from .model import FreeGroup, GroupoidModel, MeasureContext

DEFAULT_BETA_GRID = (0.9, 0.99, 0.999)
CRITICAL_MARGIN = 1e-12


def default_truncation(model: GroupoidModel) -> int:
    return 64 if isinstance(model.backend, FreeGroup) else 16


def phi_chi_lp(model: GroupoidModel, mu: MeasureContext, alpha: float,
               k: int, p: float) -> float:
    """Closed form ``alpha^k |sphere_k|^(1/p)`` for the p-norm of
    ``alpha^length`` cut to the length-k sphere (unit weights sum to 1)."""
    if not 0 < alpha <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    count = model.sphere_count(k)
    if count == 0:
        return 0.0
    return math.exp(k * math.log(alpha) + math.log(count) / p)


@dataclass
class ExtensionReport:
    """Certified verdict on extending the ``alpha^length`` state to the
    p-completion, with the per-k traces behind it."""

    alpha: float
    p: float
    K: int
    verdict: str  # Extends | FailsToExtend | Inconclusive
    reason: str
    growth_rate: float | None  # alpha * rho^(1/p) when the ratio is stable
    cond2_trace: list = field(default_factory=list)   # (k, |phi chi_k|_p / (k+1))
    cond2_sup: float = 0.0
    cond3_partials: list = field(default_factory=list)  # (k, partial sum)
    cond4_grid: list = field(default_factory=list)    # (beta, tail_ratio, certified)


def extension_criteria(model: GroupoidModel, mu: MeasureContext, alpha: float,
                       p: float, K: int | None = None,
                       beta_grid=DEFAULT_BETA_GRID, budget=None) -> ExtensionReport:
    """Evaluate the equivalent summability criteria for the state of
    ``alpha^length`` on the p-completion and certify a verdict; K is charged
    by ``charge_radii`` before any count is formed."""
    if p < 2:
        raise PreconditionError("p must be >= 2")
    if not 0 < alpha <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    if not all(0 < beta <= 1 for beta in beta_grid):
        raise PreconditionError("every beta must lie in (0, 1]")
    if K is None:
        K = default_truncation(model)
    if K < 0:
        raise PreconditionError("truncation K must be >= 0")
    charge_radii(model, "extension series", K, budget)
    counts = [model.sphere_count(k) for k in range(K + 1)]

    cond2, cond3 = [], []
    total = 0.0
    for k in range(K + 1):
        try:
            cond2.append((k, phi_chi_lp(model, mu, alpha, k, p) / (k + 1)))
            if counts[k]:
                total += math.exp(p * k * math.log(alpha)
                                  - (2 + p) * math.log(1 + k)
                                  + math.log(counts[k]))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise PreconditionError(f"the extension series leave the float range at k={k}; lower K")
        cond3.append((k, total))
    cond2_sup = max(v for _, v in cond2)

    ratio = exact_sphere_ratio(counts)
    saturated = any(c == 0 for c in counts[1:])
    rho = None if ratio is None else float(ratio)

    cond4 = []
    for beta in beta_grid:
        if saturated:
            cond4.append((beta, 0.0, True))
        elif rho is None:
            cond4.append((beta, None, False))
        else:
            tail = rho * (alpha * beta) ** p
            cond4.append((beta, tail, tail < 1 - CRITICAL_MARGIN))

    growth_rate = None if rho is None else alpha * rho ** (1.0 / p)
    if saturated:
        verdict, reason = "Extends", "fibers are bounded; all sphere series are finite sums"
    elif rho is None:
        verdict, reason = "Inconclusive", "sphere-count ratio did not stabilize; no certified envelope"
    elif growth_rate < 1 - CRITICAL_MARGIN:
        verdict = "Extends"
        reason = (f"certified geometric decay: alpha * rho^(1/p) = {growth_rate:.6g} < 1, "
                  "so the sphere masses are dominated by a convergent geometric series")
    elif growth_rate > 1 + CRITICAL_MARGIN:
        verdict = "FailsToExtend"
        reason = (f"certified geometric growth: alpha * rho^(1/p) = {growth_rate:.6g} > 1, "
                  "so the normalized sphere masses eventually dominate a divergent "
                  "geometric series and the boundedness criterion fails")
    else:
        verdict, reason = "Inconclusive", "alpha sits at the critical decay rate"

    return ExtensionReport(alpha=alpha, p=p, K=K, verdict=verdict, reason=reason,
                           growth_rate=growth_rate, cond2_trace=cond2,
                           cond2_sup=cond2_sup, cond3_partials=cond3,
                           cond4_grid=cond4)


@dataclass
class ThresholdBand:
    """Decay exponents between certified extension failure at q and
    certified extension at p: ``(rho^(-1/q), rho^(-1/p))``."""

    q: float
    p: float
    ratio: float
    lower: float
    upper: float
    nonempty: bool
    sample_alpha: float | None


def threshold_band(growth: GrowthReport, q: float, p: float) -> ThresholdBand:
    """Band of decay bases separating the q- and p-completion behavior,
    from the stabilized sphere-count ratio of a growth report."""
    if not 2 <= q <= p:
        raise PreconditionError("need 2 <= q <= p")
    if growth.subexponential or not growth.ratio_stabilized or growth.sphere_ratio <= 1:
        raise GrowthHypothesisError(
            "threshold band needs certified exponential fiber growth "
            "(stabilized sphere ratio > 1); got subexponential or unstable counts")
    rho = growth.sphere_ratio
    lower = rho ** (-1.0 / q)
    upper = rho ** (-1.0 / p)
    nonempty = upper > lower
    sample = 0.5 * (lower + upper) if nonempty else None
    return ThresholdBand(q=q, p=p, ratio=rho, lower=lower, upper=upper,
                         nonempty=nonempty, sample_alpha=sample)


def witness_ratio(model: GroupoidModel, mu: MeasureContext, alpha: float,
                  p: float, k: int, C: float) -> float:
    """The mass-to-bound ratio ``|phi_alpha chi_k|_p / (2 C (k+1))``;
    values above 1 witness that the state cannot be bounded on the
    p-completion."""
    return phi_chi_lp(model, mu, alpha, k, p) / (2.0 * C * (k + 1))


def witness_first_crossing(model: GroupoidModel, mu: MeasureContext, alpha: float,
                           p: float, C: float, k_cap: int = 400, budget=None) -> int | None:
    """Smallest k with witness ratio above 1, scanned up to ``k_cap``, which
    is charged by ``charge_radii`` first."""
    charge_radii(model, "witness scan", k_cap, budget)
    for k in range(k_cap + 1):
        if witness_ratio(model, mu, alpha, p, k, C) > 1.0:
            return k
    return None


@dataclass
class Certificate:
    """Non-injectivity certificate between the q- and p-completions:
    a decay base inside the threshold band whose state extends at p,
    certifiably fails at q, and has a witness ratio crossing 1."""

    q: float
    p: float
    alpha: float
    band: ThresholdBand
    in_band: bool
    delta: float
    overlap: float
    extends_at_p: ExtensionReport
    fails_at_q: ExtensionReport
    witness_crossing: int | None
    witness_rows: list
    verdict: str  # Certified | Inconclusive
    reason: str


def certificate(model: GroupoidModel, mu: MeasureContext, growth: GrowthReport,
                q: float, p: float, alpha: float | None = None,
                K: int | None = None, delta_radius: int = 3,
                witness_cap: int = 400, budget=None) -> Certificate:
    """Assemble the two-sided certificate at ``alpha`` (default: the
    band's sample point).  ``budget`` bounds the delta ball's elements and
    the radii of the extension series and the witness scan."""
    if witness_cap < 0:
        raise PreconditionError("witness_cap must be >= 0")
    band = threshold_band(growth, q, p)
    if alpha is None:
        if band.sample_alpha is None:
            raise GrowthHypothesisError("band is empty; no sample point to certify")
        alpha = band.sample_alpha
    in_band = band.lower < alpha < band.upper

    est = hyperbolicity_delta(model, 0, delta_radius, budget=budget)
    C = overlap_constant(model, est.delta)

    extends = extension_criteria(model, mu, alpha, p, K=K, budget=budget)
    fails = extension_criteria(model, mu, alpha, q, K=K, budget=budget)
    crossing = witness_first_crossing(model, mu, alpha, q, C, k_cap=witness_cap, budget=budget)
    ks = sorted({0, 10, 20, 30, 40, 50, 60, *(x for x in (crossing,) if x is not None)})
    witness_rows = [(k, witness_ratio(model, mu, alpha, q, k, C)) for k in ks]

    problems = []
    if not in_band:
        problems.append(f"alpha={alpha:.6g} is outside the band")
    if extends.verdict != "Extends":
        problems.append(f"p-leg verdict is {extends.verdict}")
    if fails.verdict != "FailsToExtend":
        problems.append(f"q-leg verdict is {fails.verdict}")
    if crossing is None:
        problems.append(f"no witness crossing up to k={witness_cap}")
    if problems:
        verdict, reason = "Inconclusive", "; ".join(problems)
    else:
        verdict = "Certified"
        reason = (f"state of {alpha:.6g}^length extends on the p={p:g} completion, "
                  f"certifiably fails on q={q:g}, witness ratio crosses 1 at k={crossing}")
    return Certificate(q=q, p=p, alpha=alpha, band=band, in_band=in_band,
                       delta=est.delta, overlap=C, extends_at_p=extends,
                       fails_at_q=fails, witness_crossing=crossing,
                       witness_rows=witness_rows, verdict=verdict, reason=reason)
