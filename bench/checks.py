"""Output checks, one per CLI operation.

Each check reads the query's ``report.json`` (and tables) and compares it
with ``oracles``: a closed form, an independently built matrix, or a
property the method must have.  A check returns the list of problems it
found; an empty list means the output is correct.

``MUTATIONS`` lists, per operation, perturbations of a correct report that
its check must reject (see ``selftest.py``).
"""
from __future__ import annotations

import math

import numpy as np

import oracles as O

REL = 1e-9          # values from iterative solvers and eigen-solvers
EXACT = 1e-12       # values from closed forms on both sides
EIG_ABS = 1e-10     # Gram eigenvalues, absolute
DENSE_MAX = 1500    # largest ball checked by a dense SVD
DEFAULT_LADDER = (4, 6, 8, 10, 12)


def close(a, b, rel=REL) -> bool:
    return a is not None and b is not None and abs(a - b) <= rel * max(1.0, abs(b))


class Context:
    """Caches reference models and oracle values across rounds of a run."""

    def __init__(self, root, seed: int):
        self.root = root
        self.seed = seed
        self._models = {}
        self._cache = {}

    def model(self, name) -> O.RefModel:
        if name not in self._models:
            self._models[name] = O.RefModel(self.root / "models" / f"{name}.json")
        return self._models[name]

    def memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


def _overlap(ctx, m: O.RefModel, name: str, radius: int):
    """Own four-point defect at unit 0 and the overlap constant it implies."""
    delta = 0 if m.free else ctx.memo(("delta", name, radius),
                                      lambda: O.four_point_delta(m, m.ball(radius)))
    return delta, len(m.ball(math.ceil(2 * delta + 1)))


# -- norm -------------------------------------------------------------------------

def check_norm(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    f = O.function_from_spec(m, cfg["function"])
    L = cfg["L"]
    problems = []
    if rep["verdict"] != "pass":
        problems.append(f"verdict {rep['verdict']!r}, expected 'pass'")
    trace = res["trace"]
    ladder = (sorted(set(cfg["ladder"])) if cfg["ladder"] is not None
              else sorted({min(x, L) for x in DEFAULT_LADDER} | {L}))
    if [r[0] for r in trace] != ladder:
        problems.append(f"ladder {[r[0] for r in trace]} != {ladder}")
        return problems
    if res["value"] != trace[-1][1] or res["L"] != L:
        problems.append("value/L differ from the last ladder rung")
    if res["units_checked"] != list(range(m.units)):
        problems.append("not every unit was checked")
    rows = tables.get("norm_trace", [])[1:]
    if [[float(x) for x in r[:2]] for r in rows] != [[float(r[0]), r[1]] for r in trace]:
        problems.append("norm_trace.csv differs from the report trace")
    for a, b in zip(trace, trace[1:]):
        if b[1] < a[1] - 1e-9:
            problems.append(f"ladder decreases from L={a[0]} to L={b[0]}")
    if not all(r[4] for r in trace):
        problems.append("a rung did not converge")
    bound = O.i_norm(m, f)
    if max(r[1] for r in trace) > bound * (1 + EXACT):
        problems.append(f"value exceeds the I-norm {bound}")
    if res["value"] not in [r[1] for r in trace]:
        problems.append("reported value is not a rung value")

    profile = O.radial_profile(cfg["function"]) if m.free else None
    if profile is not None:
        for Lk, value, *_ in trace:
            ref = ctx.memo(("radial", m.rank, tuple(profile), Lk),
                           lambda: O.radial_norm(m.rank, profile, Lk))
            if not close(value, ref):
                problems.append(f"L={Lk}: {value!r} != sphere-quotient {ref!r}")
        if profile == [0.0, 1.0] and res["value"] >= 2 * math.sqrt(2 * m.rank - 1):
            problems.append("chi_1 norm at or above Kesten's 2 sqrt(2d-1)")
        return problems

    def svd(u, Lk):
        return ctx.memo(("svd", q.qid, ctx.seed, u, Lk), lambda: O.svd_norm(m, f, u, Lk))

    checked = 0
    for Lk, value, *_ in trace:
        if len(m.ball(Lk)) > DENSE_MAX:
            continue
        checked += 1
        ref = svd(res["unit"], Lk)
        if not close(value, ref):
            problems.append(f"L={Lk} unit {res['unit']}: {value!r} != dense SVD {ref!r}")
    if len(m.ball(L)) <= DENSE_MAX:
        best = max(svd(u, L) for u in range(m.units))
        if not close(res["value"], best):
            problems.append(f"value {res['value']!r} != max over units of dense SVD {best!r}")
    if not checked:
        problems.append("no rung small enough for a dense SVD")
    return problems


# -- geometry -----------------------------------------------------------------------

def check_growth(ctx, q, rep, tables):
    res, K = rep["results"], rep["parameters"]["K"]
    m = ctx.model(q.model)
    spheres = [m.sphere_count(k) for k in range(K + 1)]
    balls = list(np.cumsum(spheres).tolist())
    problems = []
    if res["sphere_counts"] != spheres:
        problems.append(f"sphere counts {res['sphere_counts']} != {spheres}")
    if res["ball_counts"] != balls:
        problems.append("ball counts are not the running sums of the sphere counts")
    if not (res["certified_upper"] and res["certified_lower"]):
        problems.append("envelope not certified")
    exponential = m.free and m.rank > 1
    if res["subexponential"] == exponential:
        problems.append(f"subexponential={res['subexponential']}")
    if exponential and res["sphere_ratio"] != 2 * m.rank - 1:
        problems.append(f"sphere ratio {res['sphere_ratio']} != {2 * m.rank - 1}")
    if not rep["verdict"].startswith("pass"):
        problems.append(f"verdict {rep['verdict']!r}")
    rows = tables.get("growth", [])[1:]
    if [[int(x) for x in r[1:]] for r in rows] != [list(p) for p in zip(spheres, balls)]:
        problems.append("growth.csv differs from the counts")
    return problems


def check_delta(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    radius = cfg["radius"]
    units = list(range(m.units)) if cfg["units"] == "all" else cfg["units"]
    delta, C = _overlap(ctx, m, q.model, radius)
    problems = []
    if [r["unit"] for r in res["per_unit"]] != units:
        problems.append("per-unit rows do not match the requested units")
    for r in res["per_unit"]:
        if r["delta"] != delta:
            problems.append(f"unit {r['unit']}: delta {r['delta']} != {delta}")
        if r["n_points"] != len(m.ball(radius)):
            problems.append(f"unit {r['unit']}: {r['n_points']} points != {len(m.ball(radius))}")
    if res["delta"] != delta or res["overlap_constant"] != C:
        problems.append(f"delta/overlap {res['delta']}/{res['overlap_constant']} != {delta}/{C}")
    if rep["verdict"] != "pass":
        problems.append(f"verdict {rep['verdict']!r}")
    return problems


def check_bandcheck(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    k, n, u, cap = cfg["k"], cfg["n"], cfg["unit"], cfg["support_cap"]
    delta, C = _overlap(ctx, m, q.model, cfg["delta_radius"])
    rng = np.random.default_rng(cfg["seed"])

    def random_sphere_function(kk, bound_one):
        # the CLI draws the subset, then the real parts, then the imaginary parts
        full = [(uu, w) for uu in range(m.units) for w in m.sphere(kk)]
        if len(full) > cap:
            idx = sorted(rng.choice(len(full), size=cap, replace=False).tolist())
            full = [full[i] for i in idx]
        vals = rng.uniform(-1, 1, size=len(full)) + 1j * rng.uniform(-1, 1, size=len(full))
        if bound_one and len(vals):
            vals = vals / max(1.0, float(np.max(np.abs(vals))))
        return {x: complex(v) for x, v in zip(full, vals) if v != 0}

    f = random_sphere_function(k, False)
    g = random_sphere_function(n, True)
    h = O.convolve(m, f, g)
    lo, hi = abs(k - n), k + n
    bound = C * sum(abs(v) for (uu, _), v in f.items() if uu == u)
    problems = []
    if res["band"] != [lo, hi] or res["delta"] != delta or res["overlap"] != C:
        problems.append("band, delta or overlap constant wrong")
    if any(abs(v) for (_, w), v in h.items() if not lo <= m.length(w) <= hi) or res["outside_mass"] != 0:
        problems.append("mass outside the band")
    expect_ok = True
    if [r[0] for r in res["rows"]] != list(range(lo, hi + 1)):
        return problems + ["band rows do not cover the band"]
    for mm, mass, bnd, ok in res["rows"]:
        ref = sum(abs(v) for (uu, w), v in h.items() if uu == u and m.length(w) == mm)
        if not close(mass, ref) or not close(bnd, bound, EXACT):
            problems.append(f"slice {mm}: mass/bound {mass}/{bnd} != {ref}/{bound}")
        row_ok = ref <= bound + 1e-9 * max(1.0, bound)
        expect_ok = expect_ok and row_ok
        if ok != row_ok:
            problems.append(f"slice {mm}: ok={ok}")
    if res["passed"] != expect_ok or rep["verdict"] != ("pass" if expect_ok else "fail"):
        problems.append(f"verdict {rep['verdict']!r}")
    if not expect_ok:
        problems.append("band bound violated")
    return problems


# -- kernels --------------------------------------------------------------------------

def _random_tuples(m, seed, count, max_size, max_len):
    """The random fiber tuples the CLI draws, in its draw order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rng.integers(m.units)  # the unit; Gram matrices of radial kernels ignore it
        pool = m.ball(max_len)
        size = min(int(rng.integers(1, max_size + 1)), len(pool))
        idx = rng.choice(len(pool), size=size, replace=False)
        out.append([pool[i] for i in sorted(idx)])
    return out


def check_pdcheck(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    kern = O.kernel_fn(cfg["kernel"])
    mode = cfg["mode"]
    if "ball" in mode:
        tuples = [m.ball(mode["ball"]["k"])]
    else:
        r = mode["random"]
        tuples = _random_tuples(m, cfg["seed"], r["count"], r["max_size"], r["max_len"])
    problems = []
    if len(res["checks"]) != len(tuples):
        return [f"{len(res['checks'])} checks, expected {len(tuples)}"]
    all_ok = True
    for i, (words, c) in enumerate(zip(tuples, res["checks"])):
        ev = float(np.linalg.eigvalsh(O.gram(m, kern, words))[0])
        ok = ev >= -cfg["tol"]
        all_ok = all_ok and ok
        if c["size"] != len(words) or abs(c["min_eig"] - ev) > EIG_ABS or c["passed"] != ok:
            problems.append(f"tuple {i}: {c} != size {len(words)}, min_eig {ev!r}")
    if res["all_passed"] != all_ok or rep["verdict"] != ("pass" if all_ok else "fail"):
        problems.append(f"verdict {rep['verdict']!r}")
    if not all_ok:
        problems.append("kernel is not positive semidefinite")
    return problems


def check_gns(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    words = m.ball(cfg["k"])
    ev = np.linalg.eigvalsh(O.gram(m, O.kernel_fn(cfg["kernel"]), words))
    null = int(np.sum(ev < cfg["null_tol"]))
    problems = []
    if (res["dim"], res["null_dim"], res["quotient_dim"]) != (len(words), null, len(words) - null):
        problems.append(f"dims {res['dim']}/{res['null_dim']}/{res['quotient_dim']} "
                        f"!= {len(words)}/{null}/{len(words) - null}")
    if abs(res["min_eig"] - float(ev[0])) > EIG_ABS:
        problems.append(f"min_eig {res['min_eig']!r} != {float(ev[0])!r}")
    if not 0 <= res["max_isometry_defect"] <= cfg["isometry_tol"]:
        problems.append(f"isometry defect {res['max_isometry_defect']}")
    if rep["verdict"] != "pass":
        problems.append(f"verdict {rep['verdict']!r}")
    return problems


def check_haagerup(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    diam = m.diameter()
    problems = []
    expected = [(float(n), k, 1.0 - math.exp(-(k if diam is None else min(k, diam)) / n))
                for n in sorted(cfg["n_list"]) for k in cfg["k_list"]]
    got = [(r["n"], r["k"], r["sup_dev"]) for r in res["deviation_rows"]]
    if len(got) != len(expected) or any(
            (a[0], a[1]) != (b[0], b[1]) or not close(a[2], b[2], EXACT) for a, b in zip(got, expected)):
        problems.append("sup |1 - F| over balls differs from 1 - exp(-min(k, diam)/n)")
    radii = [math.ceil(float(n) * math.log(1 / float(e)))
             for n in sorted(cfg["n_list"]) for e in cfg["eps_list"]]
    if [r["radius"] for r in res["vanishing_rows"]] != radii:
        problems.append("vanishing radii differ from ceil(n log(1/eps))")
    rows = res["unit_rows"] + res["deviation_rows"] + res["monotone_rows"] + res["vanishing_rows"]
    if not (res["passed"] and all(r["ok"] for r in rows)) or rep["verdict"] != "pass":
        problems.append(f"verdict {rep['verdict']!r}")
    return problems


# -- spectral -----------------------------------------------------------------------------

def check_powerseq(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    n_max = cfg["n_max"]
    values = [v for _, v in res["entries"]]
    problems = []
    if [n for n, _ in res["entries"]] != list(range(1, n_max + 1)):
        return ["entries do not run over n = 1..n_max"]
    if m.free and O.radial_profile(cfg["function"]) == [0.0, 1.0]:
        if res["method"] != "radial":
            problems.append(f"method {res['method']!r}, expected 'radial'")
        ref = O.chi1_power_values(m.rank, n_max)
        ceiling = 2 * math.sqrt(2 * m.rank - 1)
    else:
        if res["method"] != "sparse":
            problems.append(f"method {res['method']!r}, expected 'sparse'")
        f = O.function_from_spec(m, cfg["function"])
        h = O.convolve(m, O.involution(m, f), f)
        ref = []
        for n in range(1, n_max + 1):
            h = O.convolve(m, h, h)
            l2 = math.sqrt(sum(abs(v) ** 2 for v in h.values()) / m.units)
            ref.append(l2 ** (1.0 / (2 * 2 ** n)))
        ceiling = O.i_norm(m, f)
    for n, (v, r) in enumerate(zip(values, ref), start=1):
        if not close(v, r, EXACT):
            problems.append(f"n={n}: {v!r} != {r!r}")
    if any(b < a * (1 - EXACT) for a, b in zip(values, values[1:])) or max(values) > ceiling:
        problems.append("sequence not nondecreasing or above the norm bound")
    if rep["verdict"] != "pass":
        problems.append(f"verdict {rep['verdict']!r}")
    return problems


def check_normbound(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    alpha, k, p, L = cfg["alpha"], cfg["k"], cfg["p"], cfg["L"]
    _, C = _overlap(ctx, m, q.model, cfg["delta_radius"])
    qq = p / (p - 1)
    profile = [0.0] * k + [alpha ** k]
    if m.free:
        lhs = O.radial_norm(m.rank, profile, L)
    else:
        f = O.function_from_spec(m, {"sphere_weighted": {"alpha": alpha, "k": k}})
        lhs = max(O.svd_norm(m, f, u, L) for u in range(m.units))
    rhs = 2 * C * (k + 1) * alpha ** k * m.sphere_count(k) ** (1 / qq)
    problems = []
    if not close(res["lhs"], lhs) or not close(res["rhs"], rhs, EXACT) or res["overlap"] != C:
        problems.append(f"lhs/rhs/C {res['lhs']!r}/{res['rhs']!r}/{res['overlap']} "
                        f"!= {lhs!r}/{rhs!r}/{C}")
    ok = lhs <= rhs * (1 + 1e-9)
    if res["passed"] != ok or rep["verdict"] != ("pass" if ok else "fail") or not ok:
        problems.append(f"verdict {rep['verdict']!r} with lhs {lhs} and rhs {rhs}")
    return problems


# -- exotic -------------------------------------------------------------------------------

def _verdict(m, alpha, p):
    """Extension verdict from alpha * rho^(1/p) against 1."""
    rho = O.growth_ratio(m)
    if rho is None:
        return "Extends", None
    rate = alpha * rho ** (1 / p)
    if rate < 1 - 1e-12:
        return "Extends", rate
    if rate > 1 + 1e-12:
        return "FailsToExtend", rate
    return "Inconclusive", rate


def check_extend(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    verdict, rate = _verdict(m, cfg["alpha"], cfg["p"])
    problems = []
    if rep["verdict"] != verdict or res["verdict"] != verdict:
        problems.append(f"verdict {rep['verdict']!r}, expected {verdict!r}")
    if (res["growth_rate"] is None) != (rate is None) or (
            rate is not None and not close(res["growth_rate"], rate, EXACT)):
        problems.append(f"growth rate {res['growth_rate']!r} != {rate!r}")
    return problems


def _band(m, qx, p):
    rho = O.growth_ratio(m)
    return rho, rho ** (-1 / qx), rho ** (-1 / p)


def check_band(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    rho, lower, upper = _band(ctx.model(q.model), cfg["q"], cfg["p"])
    if (res["ratio"] != rho or not close(res["lower"], lower, EXACT)
            or not close(res["upper"], upper, EXACT) or res["nonempty"] != (upper > lower)):
        return [f"band {res['lower']!r}..{res['upper']!r} != rho^(-1/q)..rho^(-1/p) = {lower!r}..{upper!r}"]
    return []


def check_certify(ctx, q, rep, tables):
    res, cfg = rep["results"], rep["parameters"]
    m = ctx.model(q.model)
    qx, p = cfg["q"], cfg["p"]
    rho, lower, upper = _band(m, qx, p)
    alpha = cfg["alpha"] if cfg["alpha"] is not None else 0.5 * (lower + upper)
    _, C = _overlap(ctx, m, q.model, cfg["delta_radius"])
    crossing = next((k for k in range(cfg["witness_cap"] + 1)
                     if k * math.log(alpha) + math.log(m.sphere_count(k)) / qx
                     - math.log(2 * C * (k + 1)) > 0), None)
    legs = (_verdict(m, alpha, p)[0], _verdict(m, alpha, qx)[0])
    certified = lower < alpha < upper and legs == ("Extends", "FailsToExtend") and crossing is not None
    expected = "Certified" if certified else "Inconclusive"
    problems = []
    if not close(res["alpha"], alpha, EXACT):
        problems.append(f"alpha {res['alpha']!r} != band midpoint {alpha!r}")
    if (res["extends_at_p"]["verdict"], res["fails_at_q"]["verdict"]) != legs:
        problems.append(f"legs {res['extends_at_p']['verdict']}/{res['fails_at_q']['verdict']} != {legs}")
    if res["witness_crossing"] != crossing:
        problems.append(f"witness crossing {res['witness_crossing']} != {crossing}")
    if rep["verdict"] != expected or res["verdict"] != expected:
        problems.append(f"verdict {rep['verdict']!r}, expected {expected!r}")
    return problems


CHECKS = {
    "norm": check_norm, "growth": check_growth, "delta": check_delta,
    "bandcheck": check_bandcheck, "pdcheck": check_pdcheck, "gns": check_gns,
    "haagerup": check_haagerup, "powerseq": check_powerseq,
    "normbound": check_normbound, "extend": check_extend, "band": check_band,
    "certify": check_certify,
}


def check(ctx, q, rc: int, rep, tables) -> list[str]:
    """Problems with one query's exit code and outputs; empty if correct."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if rep is None:
        return problems + ["no report written"]
    if rep.get("operation") != q.op or rep["parameters"].get("seed") != ctx.seed:
        problems.append("report does not echo the operation and seed")
    try:
        problems += CHECKS[q.op](ctx, q, rep, tables)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


# -- mutations a check must reject ---------------------------------------------------------

def _bump(path, by=1e-6):
    def mutate(rep):
        obj = rep
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] += by
    return mutate


_FLIP = {"pass": "fail", "Extends": "FailsToExtend", "FailsToExtend": "Extends",
         "Certified": "Inconclusive"}


def _flip_verdict(rep):
    v = rep["verdict"]
    rep["verdict"] = _FLIP.get(v.split(" ")[0], "pass") + v[len(v.split(" ")[0]):]
    if isinstance(rep["results"].get("verdict"), str):
        rep["results"]["verdict"] = rep["verdict"]


MUTATIONS = {
    "norm": [("value off by 1e-6", _bump(["results", "value"])), ("verdict flipped", _flip_verdict)],
    "growth": [("wrong sphere count", _bump(["results", "sphere_counts", 3], 1)),
               ("verdict flipped", _flip_verdict)],
    "delta": [("delta off by 1e-6", _bump(["results", "delta"])),
              ("wrong point count", _bump(["results", "per_unit", 0, "n_points"], 1))],
    "bandcheck": [("slice mass off by 1e-6", _bump(["results", "rows", 0, 1])),
                  ("verdict flipped", _flip_verdict)],
    "pdcheck": [("min eigenvalue off by 1e-6", _bump(["results", "checks", 0, "min_eig"])),
                ("verdict flipped", _flip_verdict)],
    "gns": [("min eigenvalue off by 1e-6", _bump(["results", "min_eig"])),
            ("wrong quotient dimension", _bump(["results", "quotient_dim"], 1)),
            ("verdict flipped", _flip_verdict)],
    "haagerup": [("sup deviation off by 1e-6", _bump(["results", "deviation_rows", 0, "sup_dev"])),
                 ("verdict flipped", _flip_verdict)],
    "powerseq": [("value off by 1e-6", _bump(["results", "entries", -1, 1]))],
    "normbound": [("lhs off by 1e-6", _bump(["results", "lhs"])), ("verdict flipped", _flip_verdict)],
    "extend": [("growth rate off by 1e-6", _bump(["results", "growth_rate"])),
               ("verdict flipped", _flip_verdict)],
    "band": [("lower end off by 1e-6", _bump(["results", "lower"]))],
    "certify": [("alpha off by 1e-6", _bump(["results", "alpha"])), ("verdict flipped", _flip_verdict)],
}
