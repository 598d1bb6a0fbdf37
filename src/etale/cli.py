"""Command-line interface.

Every subcommand loads a model JSON, runs one analysis, and emits a
report: ``{tool_version, model_digest, operation, parameters, results,
verdict}``.  With ``--out DIR`` the report goes to ``DIR/report.json``
and tabular data to ``DIR/tables/*.csv``; otherwise the report is
printed.  Input files are read by ``model.read_json`` (finite numbers
only), and each handler reads its config through ``take_keys`` (a JSON
object), ``as_int``, ``as_float`` and ``as_list``; reports are written by
``json.dumps`` with ``default=vars``: results are dataclasses and plain JSON.
Output is byte-reproducible for a fixed seed.

Exit codes: 0 all checked properties passed, 1 a property failed, 2 an
input refused on purpose (a ``Refusal`` or ``BudgetError`` of ``errors``, or
an unreadable file, ``OSError``), with one ``error:`` line and no report.
Any other exception is a fault: a traceback and no report, whose status 1
is not a failed check.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import (CcFunction, function_from_json, length_weighted,
                      load_function, sphere_indicator)
from .errors import BudgetError, ModelError, PreconditionError, Refusal
from .exotic import certificate, extension_criteria, threshold_band
from .kernels import (PsdResult, ball_spectrum, gns_build, gns_isometry_defect,
                      gram_stack, haagerup_witness_check, kernel_from_json, psd_results)
from .metric import (DEFAULT_QUADRUPLE_BUDGET, band_check, growth_stats, hyperbolicity_delta,
                     overlap_constant)
from .model import (REQUIRED, GroupoidElement, GroupoidModel, MeasureContext, as_float, as_int,
                    as_list, load_model, read_json, take_keys)
from .spectral import (DEFAULT_POWER_BUDGET, power_sequence_norm, reduced_norm,
                       reduced_norm_at_unit, verify_norm_bound)

# the refusals of errors.py and an unreadable file exit 2; anything else is a fault
USAGE_ERRORS = (Refusal, BudgetError, OSError)


def _resolve_function(model: GroupoidModel, spec, budget) -> CcFunction:
    """Function inputs: {"sphere": k}, {"sphere_weighted": {"alpha", "k"}},
    {"delta": {"unit", "word"}}, {"file": path}, or an inline entry list."""
    if isinstance(spec, list):
        return function_from_json(model, spec)
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ModelError("function spec must be a one-key object or an entry list")
    kind, val = next(iter(spec.items()))
    if kind == "sphere":
        return sphere_indicator(model, as_int(val), budget=budget)
    if kind == "sphere_weighted":
        val = take_keys(val, {"alpha": REQUIRED, "k": REQUIRED})
        return length_weighted(model, as_float(val["alpha"]), as_int(val["k"]), budget=budget)
    if kind == "delta":
        entry = take_keys(val, {"unit": 0, "word": REQUIRED, "re": 1.0, "im": 0.0})
        return function_from_json(model, [entry])
    if kind == "file":
        return load_function(model, val)
    raise ModelError(f"unknown function spec {kind!r}")


# entries of the Gram stacks that pdcheck's random mode holds at once
STACK_ENTRIES = 1 << 16


def _random_draws(rng, units: int, count: int, max_size: int, pool: int) -> list:
    """``count`` tuples as ``(unit, indices)``: a random unit, and up to
    ``max_size`` distinct indices into a pool of ``pool`` words, sorted."""
    draws = []
    for _ in range(count):
        u, size = int(rng.integers(units)), min(int(rng.integers(1, max_size + 1)), pool)
        draws.append((u, sorted(rng.choice(pool, size=size, replace=False).tolist())))
    return draws


# -- handlers ---------------------------------------------------------------
# each takes (model, mu, cfg, seed, budget) and returns
# (results, verdict, passed, tables, resolved config)

def _run_growth(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"K": 8, "k_min": 1})
    rep = growth_stats(model, as_int(opts["K"]), k_min=as_int(opts["k_min"]), budget=budget)
    ok = rep.certified_upper and rep.certified_lower
    verdict = "pass" if ok else "fail"
    if rep.subexponential:
        verdict += " (subexponential: growth hypothesis unmet)"
    return rep, verdict, ok, {"growth": rep.csv_rows()}, opts


def _run_delta(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"radius": 3, "units": [0], "quad_budget": DEFAULT_QUADRUPLE_BUDGET})
    units = (list(range(model.units)) if opts["units"] == "all"
             else [as_int(u) for u in as_list(opts["units"])])
    if not units or not all(0 <= u < model.units for u in units):
        raise ModelError(f"delta needs a nonempty list of units in 0..{model.units - 1}: {units}")
    # every fiber has the same word metric: one scan serves every unit
    est = hyperbolicity_delta(model, units[0], as_int(opts["radius"]),
                              quad_budget=as_int(opts["quad_budget"]), budget=budget)
    reports = [dataclasses.replace(est, unit=u) for u in units]
    rows = [("unit", "radius", "delta", "n_points", "quadruples")]
    rows += [(u, est.radius, est.delta, est.n_points, est.quadruples) for u in units]
    results = {"per_unit": reports, "delta": est.delta,
               "overlap_constant": overlap_constant(model, est.delta)}
    return results, "pass", True, {"delta": rows}, opts


def _run_pdcheck(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"kernel": {"exp_length": 0.5}, "mode": {"ball": {"unit": 0, "k": 2}},
                           "tol": 1e-9})
    kern = kernel_from_json(model, opts["kernel"])
    mode = opts["mode"]
    if not isinstance(mode, dict) or len(mode) != 1:
        raise ModelError("pdcheck mode must have exactly one key, 'ball' or 'random'")
    if "ball" in mode:
        ball = take_keys(mode["ball"], {"unit": 0, "k": REQUIRED})
        k = as_int(ball["k"])
        if k < 0:
            raise PreconditionError("pdcheck ball radius k must be >= 0")
        eigenvalues = ball_spectrum(model, kern, as_int(ball["unit"]), k, budget)
        min_eig = float(eigenvalues[0])
        results = [PsdResult(size=len(eigenvalues), min_eig=min_eig,
                             passed=min_eig >= -as_float(opts["tol"]))]
    elif "random" in mode:
        r = take_keys(mode["random"], {"count": 100, "max_size": 10, "max_len": 4})
        count, max_size, max_len = (as_int(r[key]) for key in ("count", "max_size", "max_len"))
        if count < 1 or max_size < 1 or max_len < 0:
            raise PreconditionError(
                "pdcheck random mode needs count, max_size >= 1 and max_len >= 0")
        rng = np.random.default_rng(seed)
        # every fiber's ball has the same tree: the drawn indices are its rows
        tree = model.ball_tree(max_len, budget)
        pool = model.ball_count(max_len)
        tol = as_float(opts["tol"])
        # tuples drawn in batches whose Gram and pair-length arrays, about
        # size * (size + longest word) entries a tuple, stay near STACK_ENTRIES
        size, longest = min(max_size, pool), int(model.backend.tree_lengths(pool)[-1])
        batch = max(1, STACK_ENTRIES // (size * (size + longest)))
        results = []
        for start in range(0, count, batch):
            draws = _random_draws(rng, model.units, min(batch, count - start), max_size, pool)
            # one Gram stack and one eigvalsh per tuple size, in order of first draw
            checks = {}
            for size in dict.fromkeys(len(idx) for _, idx in draws):
                picks = [i for i, (_, idx) in enumerate(draws) if len(idx) == size]
                G = gram_stack(model, kern, [draws[i][0] for i in picks],
                               np.array([draws[i][1] for i in picks]), tree)
                checks.update(zip(picks, psd_results(G, tol)))
            results += [checks[i] for i in range(len(draws))]
    else:
        raise ModelError("pdcheck mode must be 'ball' or 'random'")
    rows = [("tuple", "size", "min_eig", "passed")]
    rows += [(i, res.size, res.min_eig, res.passed) for i, res in enumerate(results)]
    ok = all(res.passed for res in results)
    return ({"checks": results, "all_passed": ok}, "pass" if ok else "fail",
            ok, {"pdcheck": rows}, opts)


def _run_gns(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"kernel": {"exp_length": 0.5}, "unit": 0, "k": 1,
                           "null_tol": 1e-10, "isometry_tol": 1e-10})
    kern = kernel_from_json(model, opts["kernel"])
    u, k = as_int(opts["unit"]), as_int(opts["k"])
    data = gns_build(model, kern, u, k, null_tol=as_float(opts["null_tol"]), budget=budget)
    worst = max((gns_isometry_defect(model, kern, x, k, budget=budget)
                 for x in model.sphere(u, 1)), default=0.0)
    ok = worst <= as_float(opts["isometry_tol"])
    results = {"unit": u, "k": k, "dim": data.dim, "null_dim": data.null_dim,
               "quotient_dim": data.quotient_dim,
               "min_eig": float(data.eigenvalues[0]) if data.dim else 0.0,
               "max_isometry_defect": worst}
    return results, "pass" if ok else "fail", ok, {}, opts


def _run_haagerup(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"n_list": [2, 3, 4], "k_list": [1, 2, 4, 8],
                           "eps_list": [0.1, 0.01]})
    rep = haagerup_witness_check(model, opts["n_list"], opts["k_list"], opts["eps_list"],
                                 budget=budget)
    rows = [("n", "k", "sup_dev", "expected", "ok")]
    for r in rep.deviation_rows:
        rows.append((r["n"], r["k"], r["sup_dev"], r["expected"], r["ok"]))
    return rep, "pass" if rep.passed else "fail", rep.passed, {"haagerup": rows}, opts


def _run_bandcheck(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"k": 2, "n": 1, "unit": 0, "delta_radius": 3,
                           "support_cap": 200, "tol": 1e-9})
    k, n, u, cap = (as_int(opts[key]) for key in ("k", "n", "unit", "support_cap"))
    if cap < 1:
        raise PreconditionError("bandcheck support_cap must be >= 1")
    rng = np.random.default_rng(seed)
    est = hyperbolicity_delta(model, 0, as_int(opts["delta_radius"]), budget=budget)
    C = overlap_constant(model, est.delta)

    def random_sphere_function(kk, bound_one):
        # only the kept elements are built: element i of the units x sphere
        # grid is (i // W, sphere word i % W), and the radius-kk ball is
        # charged though neither it nor the sphere is enumerated
        model._charge(kk, budget)
        W = model.sphere_count(kk)
        idx = range(model.units * W)
        if len(idx) > cap:
            idx = sorted(rng.choice(len(idx), size=cap, replace=False).tolist())
        words = model.backend.sphere_words(kk, [i % W for i in idx])
        full = [GroupoidElement(i // W, w) for i, w in zip(idx, words)]
        vals = rng.uniform(-1, 1, size=len(full)) + 1j * rng.uniform(-1, 1, size=len(full))
        if bound_one:
            peak = max(np.abs(vals)) if len(vals) else 1.0
            vals = vals / max(1.0, peak)
        return CcFunction(model, dict(zip(full, vals)))

    f = random_sphere_function(k, bound_one=False)
    g = random_sphere_function(n, bound_one=True)
    rep = band_check(f, g, k, n, u, C, tol=as_float(opts["tol"]), budget=budget)
    rows = [("m", "l1_mass", "bound", "ok")] + [list(r) for r in rep.rows]
    results = vars(rep) | {"delta": est.delta}
    return results, "pass" if rep.passed else "fail", rep.passed, {"bandcheck": rows}, opts


def _run_norm(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"function": {"sphere": 1}, "L": 8, "unit": None,
                           "max_iter": 2000, "tol": 1e-10, "ladder": None})
    f = _resolve_function(model, opts["function"], budget)
    kwargs = dict(max_iter=as_int(opts["max_iter"]), tol=as_float(opts["tol"]),
                  ladder=opts["ladder"], budget=budget, seed=seed)
    if opts["unit"] is None:
        est = reduced_norm(f, as_int(opts["L"]), **kwargs)
    else:
        est = reduced_norm_at_unit(f, as_int(opts["unit"]), as_int(opts["L"]), **kwargs)
    ok = est.monotone
    return est, "pass" if ok else "fail", ok, {"norm_trace": est.csv_rows()}, opts


def _run_powerseq(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"function": {"sphere": 1}, "n_max": 3,
                           "conv_budget": DEFAULT_POWER_BUDGET})
    f = _resolve_function(model, opts["function"], budget)
    seq = power_sequence_norm(f, as_int(opts["n_max"]), mu, budget=as_int(opts["conv_budget"]))
    return seq, "pass", True, {"powerseq": seq.csv_rows()}, opts


def _run_normbound(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"alpha": 0.5, "k": 1, "p": 2, "L": 6, "delta_radius": 3,
                           "max_iter": 2000, "tol": 1e-10})
    est = hyperbolicity_delta(model, 0, as_int(opts["delta_radius"]), budget=budget)
    C = overlap_constant(model, est.delta)
    rep = verify_norm_bound(model, mu, as_float(opts["alpha"]), as_int(opts["k"]),
                            as_float(opts["p"]), C, L=as_int(opts["L"]),
                            max_iter=as_int(opts["max_iter"]), tol=as_float(opts["tol"]),
                            budget=budget, seed=seed)
    results = vars(rep) | {"delta": est.delta}
    return results, "pass" if rep.passed else "fail", rep.passed, {}, opts


def _run_extend(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"alpha": REQUIRED, "p": REQUIRED, "K": None,
                           "beta_grid": [0.9, 0.99, 0.999]})
    rep = extension_criteria(model, mu, as_float(opts["alpha"]), as_float(opts["p"]),
                             K=opts["K"] if opts["K"] is None else as_int(opts["K"]),
                             beta_grid=[as_float(b) for b in as_list(opts["beta_grid"])],
                             budget=budget)
    rows = [("k", "cond2_ratio", "cond3_partial")]
    for (k, r2), (_, r3) in zip(rep.cond2_trace, rep.cond3_partials):
        rows.append((k, r2, r3))
    return rep, rep.verdict, True, {"extension_trace": rows}, opts


def _run_band(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"q": REQUIRED, "p": REQUIRED, "K": 8, "k_min": 1})
    growth = growth_stats(model, as_int(opts["K"]), k_min=as_int(opts["k_min"]), budget=budget)
    band = threshold_band(growth, as_float(opts["q"]), as_float(opts["p"]))
    return band, "pass", True, {}, opts


def _run_certify(model, mu, cfg, seed, budget):
    opts = take_keys(cfg, {"q": REQUIRED, "p": REQUIRED, "alpha": None, "K": None,
                           "growth_K": 8, "delta_radius": 3, "witness_cap": 400})
    growth = growth_stats(model, as_int(opts["growth_K"]), budget=budget)
    cert = certificate(model, mu, growth, as_float(opts["q"]), as_float(opts["p"]),
                       alpha=None if opts["alpha"] is None else as_float(opts["alpha"]),
                       K=None if opts["K"] is None else as_int(opts["K"]),
                       delta_radius=as_int(opts["delta_radius"]),
                       witness_cap=as_int(opts["witness_cap"]), budget=budget)
    rows = [("k", "witness_ratio")] + [list(r) for r in cert.witness_rows]
    ok = cert.verdict == "Certified"
    return cert, cert.verdict, ok, {"witness": rows}, opts


HANDLERS = {
    "growth": _run_growth,
    "delta": _run_delta,
    "pdcheck": _run_pdcheck,
    "gns": _run_gns,
    "haagerup": _run_haagerup,
    "bandcheck": _run_bandcheck,
    "norm": _run_norm,
    "powerseq": _run_powerseq,
    "normbound": _run_normbound,
    "extend": _run_extend,
    "band": _run_band,
    "certify": _run_certify,
}


def _write_report(report: dict, tables: dict, out_dir) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=vars) + "\n"
    if out_dir is None:
        sys.stdout.write(text)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text)
    if tables:
        tdir = out / "tables"
        tdir.mkdir(exist_ok=True)
        for name, rows in tables.items():
            with open(tdir / f"{name}.csv", "w", newline="\n") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etale",
        description="finite-truncation analysis of groupoid convolution algebras")
    parser.add_argument("operation", choices=HANDLERS)
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--config", help="JSON file with operation parameters")
    parser.add_argument("--out", help="output directory for report.json and tables/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget (elements per ball)")
    return parser


PARSER = build_parser()  # built once: parsing is a tenth of its cost


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        model = load_model(args.model)
        mu = MeasureContext.uniform(model)
        cfg = {} if args.config is None else read_json(args.config)
        results, verdict, passed, tables, opts = HANDLERS[args.operation](
            model, mu, cfg, args.seed, args.budget)
        parameters = dict(opts)
        parameters["seed"] = args.seed
        parameters["budget"] = args.budget
        report = {
            "tool_version": __version__,
            "model_digest": model.digest(),
            "operation": args.operation,
            "parameters": parameters,
            "results": results,
            "verdict": verdict,
        }
        _write_report(report, tables, args.out)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
