"""End-to-end CLI behavior: reports, tables, exit codes, reproducibility."""
import csv
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import etale
from etale.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def files(tmp_path_factory, f2, z, z6, f2_32, z2_swap):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, model in (("f2", f2), ("z", z), ("z6", z6),
                        ("f2_32", f2_32), ("z2_swap", z2_swap)):
        paths[name] = str(root / f"{name}.json")
        etale.save_model(model, paths[name])
    paths["root"] = root
    return paths


def write_cfg(files, name, cfg):
    path = files["root"] / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_growth_report_shape(files, capsys, f2):
    code, report = run_json(capsys, ["growth", "--model", files["f2"]])
    assert code == 0
    assert set(report) == {"tool_version", "model_digest", "operation",
                           "parameters", "results", "verdict"}
    assert report["operation"] == "growth"
    assert report["model_digest"] == f2.digest()
    assert report["verdict"] == "pass"
    assert report["results"]["sphere_counts"][:3] == [1, 4, 12]
    assert report["parameters"]["K"] == 8
    assert report["parameters"]["seed"] == 0


def test_growth_subexponential_flag(files, capsys):
    code, report = run_json(capsys, ["growth", "--model", files["z6"]])
    assert code == 0
    assert "subexponential" in report["verdict"]
    assert report["results"]["saturated"] is True


def test_out_directory_layout(files, tmp_path, f2):
    out = tmp_path / "run"
    assert main(["growth", "--model", files["f2"], "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model_digest"] == f2.digest()
    with open(out / "tables" / "growth.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "sup_sphere", "inf_ball"]
    assert rows[1] == ["0", "1", "1"]
    assert len(rows) == 10


NEG_CHI1 = [{"unit": 0, "word": w, "re": -1.0} for w in ("a", "A", "b", "B")]


def test_byte_reproducibility(files, tmp_path):
    # the seed draws bandcheck's random functions and norm's start vectors;
    # -chi_1 keeps norm on Lanczos, which chi_1 (sphere quotient) leaves
    for op, table, cfg in (("bandcheck", "bandcheck", {}),
                           ("norm", "norm_trace", {"function": NEG_CHI1})):
        outs = []
        for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
            out = tmp_path / op / name
            cfg_path = write_cfg(files, f"repro_{op}", cfg)
            assert main([op, "--model", files["f2"], "--config", cfg_path,
                         "--out", str(out), "--seed", seed]) == 0
            outs.append(out)
        for rel in ("report.json", f"tables/{table}.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        results = [json.loads((out / "report.json").read_text())["results"] for out in outs]
        assert results[2] != results[0]


def test_pdcheck_failure_exits_one(files, capsys):
    cfg = write_cfg(files, "badkernel", {
        "kernel": {"table": {"radius": 2, "entries": [
            {"unit": 0, "word": "", "re": 1.0},
            {"unit": 0, "word": "a", "re": 2.0},
        ]}},
        "mode": {"ball": {"unit": 0, "k": 1}},
    })
    code, report = run_json(capsys, ["pdcheck", "--model", files["z"], "--config", cfg])
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["results"]["all_passed"] is False


def test_pdcheck_random_mode(files, capsys):
    cfg = write_cfg(files, "pdrand", {
        "mode": {"random": {"count": 6, "max_size": 5, "max_len": 2}},
    })
    code, report = run_json(capsys, ["pdcheck", "--model", files["f2_32"],
                                     "--config", cfg, "--seed", "3"])
    assert code == 0
    assert len(report["results"]["checks"]) == 6


@pytest.mark.parametrize("model", ["f2", "z6"])
def test_pdcheck_random_batches_give_the_same_checks(files, capsys, monkeypatch, model):
    # the tuples' Gram stacks are bounded by STACK_ENTRIES; a batch of one
    # tuple, a few batches and one batch all draw and check the same tuples
    cfg = write_cfg(files, "pdbatch", {"kernel": {"exp_length": 0.6},
                                       "mode": {"random": {"count": 40, "max_size": 7,
                                                           "max_len": 3}}})
    reports = []
    for entries in (etale.cli.STACK_ENTRIES, 1, 700):
        monkeypatch.setattr(etale.cli, "STACK_ENTRIES", entries)
        code, report = run_json(capsys, ["pdcheck", "--model", files[model], "--config", cfg])
        assert code == 0
        reports.append(report["results"])
    assert reports[0] == reports[1] == reports[2]


def test_gns_defaults(files, capsys):
    code, report = run_json(capsys, ["gns", "--model", files["f2"]])
    assert code == 0
    res = report["results"]
    assert res["dim"] == 5 and res["quotient_dim"] == 5
    assert res["max_isometry_defect"] == 0.0


def test_gns_budget_bounds_the_checked_ball(files, capsys):
    # k = 1 charges the 5-element ball at unit 0; each generator's isometry
    # defect then charges its two 5 x 5 Grams (50 entries) and the radius-2
    # tree its translates are walked on: 17 elements, and 18 x 4 = 72 walk
    # table entries, the most any charge needs
    cfg = write_cfg(files, "gns_k1", {"k": 1})
    code, report = run_json(capsys, ["gns", "--model", files["f2"], "--config", cfg,
                                     "--budget", "72"])
    assert code == 0 and report["results"]["max_isometry_defect"] == 0.0
    for budget, message in (("71", "walk table of radius 2 needs 72 entries"),
                            ("49", "isometry defect of radius 1 needs 50 entries"),
                            ("4", "ball of radius 1 needs 5 elements")):
        assert main(["gns", "--model", files["f2"], "--config", cfg, "--budget", budget]) == 2
        assert f"{message}, budget is {budget}" in capsys.readouterr().err


def test_large_balls_refuse_the_dense_gram_and_run_radial_blocks(files, capsys, monkeypatch):
    # F2's k = 8 ball has 13,121 elements, within the element budget.  With a
    # table kernel gns and ball-mode pdcheck need its dense Gram, whose
    # 172,160,641 entries are refused before any Gram is built; with a radial
    # kernel pdcheck reads the spectrum off the blocks, and gns is refused
    # at its isometry defect's two Grams
    grams = []
    for name in ("gram_matrix", "gram_stack"):
        monkeypatch.setattr(etale.kernels, name, lambda *args, **kw: grams.append(args))
    table = {"table": {"radius": 16, "entries": [{"unit": 0, "word": "", "re": 1.0}]}}
    ball = {"ball": {"unit": 0, "k": 8}}
    gram = "Gram matrix of radius 8 needs 172160641 entries, budget is 5000000"
    for op, cfg, message in (
            ("gns", {"kernel": table, "k": 8}, gram),
            ("pdcheck", {"kernel": table, "mode": ball}, gram),
            ("gns", {"kernel": {"haagerup": 2.0}, "k": 8},
             "isometry defect of radius 8 needs 344321282 entries, budget is 5000000")):
        argv = [op, "--model", files["f2"], "--config", write_cfg(files, "k8", cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    start = time.perf_counter()
    for kernel in ({"haagerup": 2.0}, {"exp_length": 0.5}):
        cfg = write_cfg(files, "k8", {"kernel": kernel, "mode": ball})
        code, report = run_json(capsys, ["pdcheck", "--model", files["f2"], "--config", cfg])
        check = report["results"]["checks"][0]
        assert code == 0 and check["size"] == 13121 and check["passed"]
    assert time.perf_counter() - start < 1.0 and grams == []


def test_lanczos_overflow_is_a_usage_error(files, capsys):
    # coefficients -1e300 are finite, but the dense solve's matrix entries
    # (L = 3, 53 rows) and the Lanczos recurrence's dot products (L = 4, 161
    # rows) are not; negative, so the solve is not the sphere quotient.  At
    # 1e308 on a and A the dense A = M is finite, but its eigen-residual is not
    huge = {"sphere_weighted": {"alpha": -1e100, "k": 3}}
    edge = [{"unit": 0, "word": w, "re": 1e308} for w in ("a", "A")]
    for f, L, solver in ((huge, 3, "dense eigensolve"), (huge, 4, "Lanczos"),
                         (edge, 2, "dense eigensolve")):
        cfg = write_cfg(files, "huge", {"function": f, "L": L})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norm", "--model", files["f2"], "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "overflow float64" in err[0]
        assert solver in err[0]


def test_unit_ranking_non_finite_value_is_a_usage_error(files, capsys):
    # two units, F_2 acting trivially: the stacked A is finite, but the
    # ranking's eigvalsh reads an infinite top eigenvalue at unit 0
    path = str(files["root"] / "f2_two_units.json")
    etale.save_model(etale.build_model(etale.FreeGroup(2), 2, [[0, 1], [0, 1]]), path)
    f = [{"unit": u, "word": w, "re": 1e308 if u == 0 else 1.0} for u in (0, 1) for w in "aAbB"]
    cfg = write_cfg(files, "huge_ranked", {"function": f, "L": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm", "--model", path, "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {etale.spectral.DENSE_OVERFLOW}"]


def test_unit_ranking_overflow_is_a_usage_error(files, capsys, f2_32, monkeypatch):
    # not self-adjoint and unit-dependent, at L = 3 (53 rows): the units are
    # ranked on a stack of M^H M, whose entries at unit 5's 1e200 are not
    # finite, so the ranking exits before any unit is solved
    calls = []
    for name in ("_dense", "_lanczos"):
        monkeypatch.setattr(etale.spectral, name, lambda *a, name=name: calls.append(name))
    entries = [{"unit": u, "word": w, "re": 1e200 if (u, w) == (5, "a") else 1.0 + u / 32}
               for u in range(32) for w in ("a", "b")]
    cfg = write_cfg(files, "huge_unit", {"function": entries, "L": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm", "--model", files["f2_32"], "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the coefficients of f overflow float64 in the dense eigensolve"]
    assert calls == []


def test_quotient_overflow_is_a_usage_error(files, capsys):
    # the coefficient 1e308 is finite and a whole number, but its sphere
    # quotient entries, and the power sequence's products, are not finite
    huge = {"sphere_weighted": {"alpha": 1e154, "k": 2}}
    for op, cfg in (("norm", {"function": huge, "L": 3}),
                    ("powerseq", {"function": huge, "n_max": 2})):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([op, "--model", files["f2"], "--config",
                         write_cfg(files, "huge_quotient", cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "overflow float64" in err[0]
    # 5e307 chi_1: S is tridiagonal with finite entries, but its row sums,
    # and so S y, overflow
    cfg = {"function": {"sphere_weighted": {"alpha": 5e307, "k": 1}}, "L": 8}
    assert main(["norm", "--model", files["f2"], "--config",
                 write_cfg(files, "huge_quotient", cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the coefficients of f overflow float64 in the sphere quotient"]


def test_haagerup_cli(files, capsys):
    cfg = write_cfg(files, "haag", {"n_list": [2, 4], "k_list": [1, 2], "eps_list": [0.1]})
    code, report = run_json(capsys, ["haagerup", "--model", files["f2"], "--config", cfg])
    assert code == 0
    assert report["verdict"] == "pass"
    # an integral float reads as its integer, as every other integer key does
    cfg = write_cfg(files, "haag", {"n_list": [2, 4], "k_list": [1, 2.0], "eps_list": [0.1]})
    code, report_float = run_json(capsys, ["haagerup", "--model", files["f2"], "--config", cfg])
    assert code == 0
    assert report_float["results"] == report["results"]


def test_haagerup_sup_stops_where_the_kernel_underflows(files):
    # k = 1e9 would read F on 10^9 spheres; from radius ~745 n on F is 0.0
    # and |1 - F| is 1.0, so the sup stops there.  In a child process, so a
    # hang fails this test and not the runner; the call alone is timed
    cfg = write_cfg(files, "haag_far", {"k_list": [1e9]})
    script = ("import json, sys, time\nfrom etale.cli import main\n"
              "t = time.perf_counter()\n"
              f"code = main(['haagerup', '--model', {str(files['f2'])!r}, '--config', {cfg!r}])\n"
              "print(json.dumps([code, time.perf_counter() - t]), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=30)
    code, seconds = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0 and seconds < 1.0
    rows = json.loads(proc.stdout)["results"]["deviation_rows"]
    assert [(r["n"], r["sup_dev"], r["expected"], r["ok"]) for r in rows] == [
        (n, 1.0, 1.0, True) for n in (2.0, 3.0, 4.0)]


def test_delta_cli_all_units(files, capsys):
    cfg = write_cfg(files, "delta6", {"radius": 3, "units": "all"})
    code, report = run_json(capsys, ["delta", "--model", files["z6"], "--config", cfg])
    assert code == 0
    assert report["results"]["delta"] == 2.0
    assert report["results"]["overlap_constant"] == 6
    assert len(report["results"]["per_unit"]) == 1


def test_delta_cli_one_scan_for_every_unit(files, capsys, z2_swap, monkeypatch):
    # a finite backend is scanned, once for all its units
    direct = [etale.hyperbolicity_delta(z2_swap, u, 3) for u in (0, 1)]
    calls = []
    scan = etale.metric._four_point_defect
    monkeypatch.setattr(etale.metric, "_four_point_defect",
                        lambda D: calls.append(D.shape) or scan(D))
    cfg = write_cfg(files, "delta_swap", {"radius": 3, "units": "all"})
    code, report = run_json(capsys, ["delta", "--model", files["z2_swap"], "--config", cfg])
    assert code == 0
    assert calls == [(2, 2)]
    assert report["results"]["per_unit"] == [dataclasses.asdict(est) for est in direct]
    assert report["results"]["delta"] == max(est.delta for est in direct)


def test_norm_cli_with_ladder(files, capsys):
    cfg = write_cfg(files, "norm", {"L": 4, "ladder": [2, 4], "unit": 0})
    code, report = run_json(capsys, ["norm", "--model", files["z"], "--config", cfg])
    assert code == 0
    trace = report["results"]["trace"]
    assert [row[0] for row in trace] == [2, 4]
    assert trace[-1][1] == pytest.approx(2 * math.cos(math.pi / 10), abs=1e-9)


def test_powerseq_cli(files, capsys):
    cfg = write_cfg(files, "ps", {"n_max": 2})
    code, report = run_json(capsys, ["powerseq", "--model", files["z"], "--config", cfg])
    assert code == 0
    entries = dict(tuple(r) for r in report["results"]["entries"])
    assert entries[1] == pytest.approx(math.comb(8, 4) ** (1 / 8), rel=1e-12)
    assert report["results"]["method"] == "radial"


def test_normbound_cli(files, capsys):
    code, report = run_json(capsys, ["normbound", "--model", files["f2"]])
    assert code == 0
    assert report["results"]["passed"] is True
    assert report["results"]["lhs"] <= report["results"]["rhs"]


def test_extend_cli_reports_verdict(files, capsys):
    cfg = write_cfg(files, "ext", {"alpha": 0.65, "p": 2})
    code, report = run_json(capsys, ["extend", "--model", files["f2"], "--config", cfg])
    assert code == 0  # a verdict is an answer, not a failure
    assert report["verdict"] == "FailsToExtend"


def test_band_cli(files, capsys):
    cfg = write_cfg(files, "band", {"q": 2, "p": 4})
    code, report = run_json(capsys, ["band", "--model", files["f2"], "--config", cfg])
    assert code == 0
    assert report["results"]["lower"] == pytest.approx(3 ** -0.5)
    assert report["results"]["upper"] == pytest.approx(3 ** -0.25)


def test_certify_cli(files, tmp_path, capsys):
    cfg = write_cfg(files, "cert", {"q": 2, "p": 6, "alpha": 0.65})
    out = tmp_path / "cert"
    code = main(["certify", "--model", files["f2"], "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "Certified"
    assert report["results"]["witness_crossing"] == 52
    with open(out / "tables" / "witness.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "witness_ratio"]
    assert any(r[0] == "52" for r in rows[1:])


BETA_RANGE = "every beta must lie in (0, 1]"
POWER_OVERFLOW = "the coefficients of f overflow float64 in the power sequence"
N_MAX_RANGE = "n_max must lie in 1..1022"


def test_usage_errors_exit_two(files, capsys):
    assert main(["growth", "--model", str(files["root"] / "missing.json")]) == 2
    cfg = write_cfg(files, "unknown", {"bogus": 1})
    assert main(["growth", "--model", files["f2"], "--config", cfg]) == 2
    assert main(["certify", "--model", files["f2"]]) == 2  # q, p required
    cfg_band = write_cfg(files, "band_z6", {"q": 2, "p": 4})
    assert main(["band", "--model", files["z6"], "--config", cfg_band]) == 2
    assert main(["norm", "--model", files["f2"], "--budget", "10"]) == 2
    # malformed config values and non-finite kernel entries
    for op, bad in (("norm", {"L": [1]}), ("norm", {"function": {"sphere": None}}),
                    ("norm", {"function": {"sphere_weighted": 3}}), ("norm", {"ladder": 5}),
                    ("pdcheck", {"mode": {"random": 3}}), ("delta", {"units": 5}),
                    # non-finite or out-of-range numbers in function specs
                    ("norm", {"function": {"delta": {"word": "a", "re": 1e999}}}),
                    ("norm", {"function": {"delta": {"unit": 99, "word": "a"}}}),
                    ("norm", {"function": {"sphere_weighted": {"alpha": 1e999, "k": 1}}}),
                    ("normbound", {"alpha": 1e999}),
                    # finite alpha whose power overflows or divides by zero
                    ("norm", {"function": {"sphere_weighted": {"alpha": 1e200, "k": 2}}}),
                    ("norm", {"function": {"sphere_weighted": {"alpha": 0, "k": -1}}}),
                    ("normbound", {"alpha": 1e200, "k": 2}),
                    ("norm", {"max_iter": 0}), ("norm", {"L": 3, "tol": -1}),
                    ("norm", {"function": {"sphere": -1}, "L": 3}),
                    # the extension series leave the float range at k = 670
                    ("extend", {"alpha": 1, "p": 2, "K": 700}),
                    ("norm", {"unit": -1}), ("norm", {"unit": 1}),
                    # negative truncation radii
                    ("norm", {"L": -1}), ("norm", {"L": 2, "ladder": [-1, 2]}),
                    ("normbound", {"L": -1}),
                    # eps outside (0, 1] or a negative radius
                    ("haagerup", {"eps_list": [0]}), ("haagerup", {"eps_list": [2]}),
                    ("haagerup", {"k_list": [-1]}),
                    ("haagerup", {"n_list": []}), ("haagerup", {"k_list": []}),
                    ("haagerup", {"eps_list": []}),
                    # every requested unit is range-checked, not only the scanned one
                    ("delta", {"units": [0, 99]}),
                    # empty balls or inputs that would pass vacuously
                    ("delta", {"radius": -1}), ("gns", {"k": -1}),
                    ("pdcheck", {"mode": {"ball": {"unit": 0, "k": -1}}}),
                    ("pdcheck", {"mode": {"random": {"count": -1}}}),
                    ("pdcheck", {"mode": {"random": {"count": 0}}}),
                    ("pdcheck", {"mode": {"random": {"max_len": -1}}}),
                    ("pdcheck", {"mode": {"random": {"max_size": 0}}}),
                    ("bandcheck", {"k": -1}), ("bandcheck", {"n": -1}),
                    ("bandcheck", {"support_cap": 0}), ("bandcheck", {"unit": 5}),
                    ("normbound", {"k": -1}),
                    # negative truncations
                    ("extend", {"alpha": 0.5, "p": 4, "K": -1}),
                    ("certify", {"q": 2, "p": 4, "K": -1}),
                    # non-integral numbers where an integer is read
                    ("norm", {"L": 3.7, "ladder": [2.9, 3.7]}),
                    ("norm", {"L": 3, "ladder": [2.5, 3]}),
                    ("norm", {"function": {"sphere": 1.5}}), ("norm", {"unit": 0.5}),
                    ("norm", {"function": {"sphere_weighted": {"alpha": 0.5, "k": 1.2}}}),
                    ("growth", {"K": 8.5}), ("delta", {"radius": 2.5}),
                    ("delta", {"units": [0.5]}),
                    ("gns", {"k": 1.5}), ("powerseq", {"n_max": 2.5}),
                    ("normbound", {"L": 5.5}), ("extend", {"alpha": 0.5, "p": 4, "K": 9.5})):
        assert main([op, "--model", files["f2"], "--config", write_cfg(files, "bad", bad)]) == 2
    # one error line each: a mode must name one check, k_list holds integers,
    # the witness scan cap is a radius, and objects nested in the config
    # refuse unknown keys as the config itself does, function entries too
    # (inline, from a file or in a table kernel), where a misspelt value key
    # read as a zero entry
    entry_file = files["root"] / "misspelt_entries.json"
    entry_file.write_text('[{"unit": 0, "word": "a", "re": 1.0, "imag": 2.0}]')
    zero_file = files["root"] / "zero_entries.json"
    zero_file.write_text("0")
    for op, model, bad, message in (
            ("norm", "f2", {"function": [{"unit": 0, "word": "a", "rex": 2.0}], "L": 3},
             "unknown function entry keys ['rex']"),
            ("norm", "f2", {"function": {"file": str(entry_file)}, "L": 3},
             "unknown function entry keys ['imag']"),
            ("pdcheck", "z6", {"kernel": {"table": {"entries": [{"unit": 0, "word": 0, "val": 1}]}}},
             "unknown function entry keys ['val']"),
            ("pdcheck", "z6", {"mode": {"ball": {"k": 2}, "random": {"count": 3}}},
             "pdcheck mode must have exactly one key"),
            ("pdcheck", "z6", {"mode": {"random": {"cout": 3}}}, "unknown config keys: ['cout']"),
            ("pdcheck", "z6", {"mode": {"ball": {"k": 1, "radius": 2}}},
             "unknown config keys: ['radius']"),
            ("pdcheck", "z6", {"mode": {"ball": {"unit": 0}}},
             "missing required config keys: ['k']"),
            ("norm", "f2", {"function": {"sphere_weighted": {"alpha": 0.5, "k": 1, "beta": 2}}},
             "unknown config keys: ['beta']"),
            ("norm", "f2", {"function": {"sphere_weighted": {"alpha": 0.5}}},
             "missing required config keys: ['k']"),
            ("norm", "f2", {"function": {"delta": {"word": "a", "unti": 1}}},
             "unknown config keys: ['unti']"),
            ("pdcheck", "z6", {"kernel": {"table": {"entries": [], "raduis": 2}}},
             "unknown config keys: ['raduis']"),
            ("pdcheck", "z6", {"kernel": {"table": []}}, "expected a JSON object, got []"),
            # function entries, in a table kernel or a file, are a list
            ("gns", "f2", {"kernel": {"table": {"entries": 0}}}, "expected a JSON list, got 0"),
            ("norm", "f2", {"function": {"file": str(zero_file)}, "L": 3},
             "expected a JSON list, got 0"),
            # a table kernel too small for the random pool: the first size
            # group evaluated, that of the first tuple drawn, names the length
            ("pdcheck", "f2", {"kernel": {"table": {"entries": [
                {"unit": 0, "word": "", "re": 1.0}, {"unit": 0, "word": "a", "re": 0.3}]}},
                "mode": {"random": {"count": 60, "max_size": 12, "max_len": 2}}},
             "element of length 2 outside table radius 1"),
            ("haagerup", "f2", {"k_list": [2.5]}, "expected an integer, got 2.5"),
            # a list-valued key holds a list: not a number, and not a string
            # read letter by letter
            ("delta", "f2", {"units": 3}, "expected a JSON list, got 3"),
            ("delta", "f2", {"units": "some"}, "expected a JSON list, got 'some'"),
            ("norm", "f2", {"ladder": 3}, "expected a JSON list, got 3"),
            ("extend", "f2", {"alpha": 0.5, "p": 2, "beta_grid": 3}, "expected a JSON list, got 3"),
            ("haagerup", "f2", {"n_list": 2}, "expected a JSON list, got 2"),
            ("haagerup", "f2", {"k_list": "12"}, "expected a JSON list, got '12'"),
            ("haagerup", "f2", {"eps_list": 0.1}, "expected a JSON list, got 0.1"),
            ("certify", "f2", {"q": 2, "p": 4, "witness_cap": -1}, "witness_cap must be >= 0"),
            # function specs, free-group words and pdcheck modes
            ("norm", "f2", {"function": 3}, "function spec must be a one-key object"),
            ("norm", "f2", {"function": {"sphere": 1, "delta": {"word": "a"}}},
             "function spec must be a one-key object"),
            ("norm", "f2", {"function": {"ball": 1}}, "unknown function spec 'ball'"),
            ("norm", "f2", {"function": {"delta": {"word": "a1"}}}, "bad word token 'a1'"),
            ("norm", "f2", {"function": {"delta": {"word": 1}}},
             "free-group word must be a string, got 1"),
            ("pdcheck", "z6", {"mode": {"sphere": {"k": 1}}},
             "pdcheck mode must be 'ball' or 'random'"),
            # a beta outside (0, 1]: its tail ratio is negative at p = 3,
            # complex at p = 2.5, and past the float range at 1e300
            ("extend", "f2", {"alpha": 0.5, "p": 3, "beta_grid": [-1]}, BETA_RANGE),
            ("extend", "f2", {"alpha": 0.5, "p": 2.5, "beta_grid": [-1]}, BETA_RANGE),
            ("extend", "f2", {"alpha": 0.5, "p": 2, "beta_grid": [1e300]}, BETA_RANGE)):
        capsys.readouterr()
        assert main([op, "--model", files[model], "--config", write_cfg(files, "bad", bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    inf_kernel = files["root"] / "inf_kernel.json"
    inf_kernel.write_text('{"kernel": {"table": {"entries": [{"unit": 0, "word": "", "re": 1e999}]}}}')
    assert main(["pdcheck", "--model", files["f2"], "--config", str(inf_kernel)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["extend", "--model", files["f2"], "--config",
                 write_cfg(files, "bad", {"alpha": 0.5, "p": 4, "K": -1})]) == 2
    assert "K must be >= 0" in capsys.readouterr().err
    assert main(["delta", "--model", files["f2"],
                 "--config", write_cfg(files, "bad", {"units": []})]) == 2
    assert "nonempty list of units" in capsys.readouterr().err
    # where a number is read, a string, a boolean, an integer past the float
    # range or a config that is not an object: one error line, no report
    big, out = 10 ** 400, files["root"] / "refused"
    for op, bad, message in (
            ("extend", {"alpha": 0.5, "p": 2, "beta_grid": ["nan"]}, "got 'nan'"),
            ("band", {"q": "2", "p": "inf"}, "expected a finite number, got '2'"),
            ("normbound", {"p": "nan"}, "expected a finite number, got 'nan'"),
            ("pdcheck", {"kernel": {"exp_length": "0.5"}}, "got '0.5'"),
            ("norm", {"function": [{"unit": 0, "word": "a", "re": "2"}]}, "got '2'"),
            ("normbound", {"alpha": big}, "expected a finite number, got 1000"),
            ("pdcheck", {"tol": big}, "got 1000"), ("extend", {"alpha": 0.5, "p": big}, "got 1000"),
            ("norm", {"function": [{"unit": 0, "word": "a", "re": big}]}, "got 1000"),
            ("growth", {"K": True}, "expected an integer, got True"),
            ("growth", [1, 2], "expected a JSON object, got [1, 2]")):
        argv = [op, "--model", files["f2"], "--config", write_cfg(files, "bad", bad)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not out.exists()
    # budget counts past Python's 4,300-digit int-to-str limit still print
    for op, cfg, message in (("norm", {"function": {"delta": {"unit": 0, "word": "a"}},
                                       "L": 20000}, "elements, budget is 5000000"),
                             ("delta", {"radius": 20000}, "elements, budget is 5000000")):
        assert main([op, "--model", files["f2"], "--config", write_cfg(files, "bad", cfg)]) == 2
        assert message in capsys.readouterr().err


F2_MODEL = '{"backend": {"free": 2}, "units": 1, "action": [[0], [0]]}'
NORM_FILE = '{"function": {"file": FILE}, "L": 2}'


def _entries(unit="0", extra=""):
    return '[{"unit": %s, "word": "a", "re": 0.5%s}]' % (unit, extra)


def _table(entries):
    return '{"kernel": {"table": {"entries": %s}}}' % entries


# NaN, Infinity and 1e999 in each kind of input, each where the reader let it
# through: Infinity and 1e999 overflow an int() with a traceback, and int(NaN)
# raises ValueError, so NaN goes where a float is taken as it is or into a key
# no one reads.  Then table-kernel entries at units out of range, and
# non-integral numbers where an integer is read, which int() truncated.
# (case, operation, model file text or fixture name, config, function file, message)
NOT_FINITE = "is not a finite number"
BAD_INPUT = [
    ("model-NaN", "growth", F2_MODEL[:-1] + ', "note": NaN}', "{}", None, "NaN " + NOT_FINITE),
    ("model-Infinity", "growth", F2_MODEL.replace("1,", "Infinity,"), "{}", None,
     "Infinity " + NOT_FINITE),
    ("model-1e999", "growth", F2_MODEL.replace("1,", "1e999,"), "{}", None, "1e999 " + NOT_FINITE),
    ("config-NaN", "normbound", "f2", '{"p": NaN}', None, "NaN " + NOT_FINITE),
    ("config-Infinity", "normbound", "f2", '{"p": Infinity}', None, "Infinity " + NOT_FINITE),
    ("config-1e999", "delta", "f2", '{"radius": 1e999}', None, "1e999 " + NOT_FINITE),
    ("function-NaN", "norm", "f2", NORM_FILE, _entries(extra=', "note": NaN'), "NaN " + NOT_FINITE),
    ("function-Infinity", "norm", "f2", NORM_FILE, _entries("Infinity"), "Infinity " + NOT_FINITE),
    ("function-1e999", "norm", "f2", NORM_FILE, _entries("1e999"), "1e999 " + NOT_FINITE),
    ("kernel-NaN", "pdcheck", "f2", _table(_entries(extra=', "note": NaN')), None,
     "NaN " + NOT_FINITE),
    ("kernel-Infinity", "pdcheck", "f2", _table(_entries("Infinity")), None,
     "Infinity " + NOT_FINITE),
    ("kernel-1e999", "pdcheck", "f2", _table(_entries("1e999")), None, "1e999 " + NOT_FINITE),
    ("kernel-unit-99", "pdcheck", "f2_32", _table(_entries("99")), None, "unit 99 out of range"),
    ("kernel-unit--1", "pdcheck", "f2_32", _table(_entries("-1")), None, "unit -1 out of range"),
    ("model-free-2.5", "growth", F2_MODEL.replace("2}", "2.5}"), "{}", None,
     "expected an integer, got 2.5"),
    ("model-units-1.9", "growth", F2_MODEL.replace("1,", "1.9,"), "{}", None,
     "expected an integer, got 1.9"),
    ("model-table-1.5", "growth", '{"backend": {"finite": {"table": [[0, 1.5], [1, 0]], '
     '"generators": [1]}}, "units": 1, "action": [[0]]}', "{}", None,
     "expected an integer, got 1.5"),
    ("function-word-1.5", "norm", "z6", NORM_FILE, '[{"unit": 0, "word": 1.5, "re": 1.0}]',
     "expected an integer, got 1.5"),
    ("function-unit-0.5", "norm", "f2", NORM_FILE, _entries("0.5"), "expected an integer, got 0.5"),
    ("config-L-3.7", "norm", "z", '{"L": 3.7, "ladder": [2.9, 3.7]}', None,
     "expected an integer, got 3.7"),
    # model files whose shape is wrong: each is refused, not a TypeError
    ("model-not-JSON", "growth", F2_MODEL[:-1], "{}", None, "Expecting ',' delimiter"),
    ("model-backend-3", "growth", F2_MODEL.replace('{"free": 2}', "3"), "{}", None,
     "backend must be a JSON object, got 3"),
    ("model-action-0", "growth", F2_MODEL.replace("[[0], [0]]", "0"), "{}", None,
     "expected a JSON list, got 0"),
    ("model-action-x", "growth", F2_MODEL.replace("[[0], [0]]", '[["x"], [0]]'), "{}", None,
     "is not a permutation of 1 units"),
    ("model-table-ragged", "growth", '{"backend": {"finite": {"table": [[0, 1], [1]], '
     '"generators": [1]}}, "units": 1, "action": [[0]]}', "{}", None,
     "multiplication table must be square"),
]


@pytest.mark.parametrize("op,model,cfg,function,message", [c[1:] for c in BAD_INPUT],
                         ids=[c[0] for c in BAD_INPUT])
def test_bad_input_exits_two(op, model, cfg, function, message, files, tmp_path, capsys):
    model_path = files.get(model, tmp_path / "model.json")
    if model not in files:
        model_path.write_text(model)
    if function is not None:
        (tmp_path / "f.json").write_text(function)
        cfg = cfg.replace("FILE", json.dumps(str(tmp_path / "f.json")))
    (tmp_path / "config.json").write_text(cfg)
    assert main([op, "--model", str(model_path), "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_budget_bounds_every_ball(files, capsys):
    # the delta ball and the pdcheck random pool are charged too; certify's
    # growth table is cut to K = 3, whose 4 radii and 6 digits fit the budget
    delta_ball = "ball of radius 3 needs 53 elements, budget is 10"
    for op, cfg, message in (
            ("delta", {"radius": 3}, delta_ball),
            ("bandcheck", {}, delta_ball), ("normbound", {}, delta_ball),
            ("certify", {"q": 2, "p": 4, "growth_K": 3}, delta_ball),
            ("pdcheck", {"mode": {"random": {"count": 1, "max_len": 4}}},
             "ball of radius 4 needs 161 elements, budget is 10")):
        argv = [op, "--model", files["f2"], "--config", write_cfg(files, "budget", cfg)]
        assert main(argv + ["--budget", "10"]) == 2
        assert message in capsys.readouterr().err


def test_norm_charges_the_walk_table(tmp_path, capsys):
    # a rank-2,048 free group's radius-1 ball has 4,097 words, inside the
    # element budget; its walk table has 4,098 x 4,096 entries
    model = tmp_path / "f2048.json"
    etale.save_model(etale.group_model(etale.FreeGroup(2048)), model)
    cfg = tmp_path / "delta_a.json"
    cfg.write_text(json.dumps({"function": {"delta": {"word": "a"}}, "L": 1}))
    assert main(["norm", "--model", str(model), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: walk table of radius 1 needs 16785408 entries, budget is 5000000"]


def test_bandcheck_builds_only_the_sampled_elements(files, capsys, monkeypatch):
    # on f2_32 f's 384 sphere-2 elements are sampled down to support_cap 200,
    # and g's 128 sphere-1 elements are all kept
    built = []
    monkeypatch.setattr(etale.cli, "GroupoidElement",
                        lambda *args: built.append(args) or etale.GroupoidElement(*args))
    assert main(["bandcheck", "--model", files["f2_32"]]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["passed"]
    assert len(built) == 200 + 128


def test_bandcheck_builds_no_ball(files, capsys, monkeypatch):
    # at k = 12 the F2 sphere has 1,062,882 words, of which 200 are drawn by
    # index; the radius-12 ball is charged, and radius 14 is refused
    far = write_cfg(files, "band_far", {"k": 12})
    script = ("import json, sys, time\nfrom etale.cli import main\n"
              "t = time.perf_counter()\n"
              f"code = main(['bandcheck', '--model', {str(files['f2'])!r}, '--config', {far!r}])\n"
              "print(json.dumps([code, time.perf_counter() - t]), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=30)
    code, seconds = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0 and seconds < 1.0

    def refuse(*args):
        raise AssertionError("a ball was enumerated")
    monkeypatch.setattr(etale.FreeGroup, "_trie", refuse)
    monkeypatch.setattr(etale.FreeGroup, "ball_words", refuse)
    code, report = run_json(capsys, ["bandcheck", "--model", files["f2"], "--config", far])
    assert code == 0 and report["results"]["passed"]
    assert json.loads(proc.stdout) == report
    argv = ["bandcheck", "--model", files["f2"], "--config", write_cfg(files, "band", {"k": 14})]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: ball of radius 14 needs 9565937 elements, budget is 5000000"]


def test_delta_refuses_before_enumerating(tmp_path, capsys, monkeypatch):
    # Z/200 at radius 100 is 200 elements, inside the element budget; its
    # quadruple count is refused from the ball count alone
    model = tmp_path / "z200.json"
    table = [[(i + j) % 200 for j in range(200)] for i in range(200)]
    etale.save_model(etale.group_model(etale.FiniteGroup(table, [1])), model)
    calls = []
    monkeypatch.setattr(etale.FiniteGroup, "ball_words", lambda self, L: calls.append(L))
    cfg = tmp_path / "delta_far.json"
    cfg.write_text(json.dumps({"radius": 100}))
    assert main(["delta", "--model", str(model), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: four-point scan of radius 100 needs 404010000 quadruples, budget is 100000000"]
    assert calls == []


def test_delta_on_free_models_charges_only_the_ball(files, capsys, monkeypatch):
    # delta is 0 on a tree: radius 10^5 on z is 200,001 elements and runs,
    # its quadruple count past quad_budget; on f2 the ball of radius 20,000
    # (9,543 digits) is refused from its logarithm
    calls = []
    monkeypatch.setattr(etale.FreeGroup, "ball_words", lambda self, L: calls.append(L))
    cfg = write_cfg(files, "delta_far", {"radius": 100_000})
    code, report = run_json(capsys, ["delta", "--model", files["z"], "--config", cfg])
    assert code == 0
    assert report["results"]["per_unit"][0] == {
        "delta": 0.0, "n_points": 200_001, "quadruples": (200_001 * 100_001) ** 2,
        "radius": 100_000, "unit": 0}
    start = time.perf_counter()
    cfg = write_cfg(files, "delta_far", {"radius": 20_000})
    assert main(["delta", "--model", files["f2"], "--config", cfg]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.splitlines() == [
        "error: ball of radius 20000 needs about 10^9542.73 elements, budget is 5000000"]
    assert calls == []


def test_growth_at_large_K_exits_without_traceback(files, capsys):
    # the envelopes leave the float range at K = 550 on f2.  The digits of the
    # counts, about K (K + 1) log10(3), pass the default budget from K = 3,237,
    # and are refused before any count is formed: K = 9,011 used to write a
    # 75 MB report in 5 s.  Under a larger budget, a ball count past Python's
    # 4,300-digit int-to-str limit (from K = 9,012) is refused the same way
    assert main(["growth", "--model", files["f2"], "--out", str(files["root"] / "g"),
                 "--config", write_cfg(files, "growth", {"K": 550})]) == 0
    capsys.readouterr()
    for K, budget, message in (
            (9011, [], "growth table of radius 9011 needs 38745649 digits, budget is 5000000"),
            (3237, [], "growth table of radius 3237 needs 5000902 digits, budget is 5000000"),
            (9100, ["--budget", "1000000000"], "the ball count of radius 9100 has more than "
                                               "4300 digits, past Python's limit for printing "
                                               "an integer")):
        start = time.perf_counter()
        assert main(["growth", "--model", files["f2"], *budget,
                     "--config", write_cfg(files, "growth", {"K": K})]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_bad_operation_exits_two(files):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", files["f2"]])
    assert exc.value.code == 2


def test_missing_model_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["growth"])
    assert exc.value.code == 2


def test_a_number_is_not_a_file_path(files):
    # open() reads a number (or a boolean) as a file descriptor and closes it
    # on leaving its ``with`` block, so these run in a child process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for value in (0, True, 2):
        cfg = write_cfg(files, "fd", {"function": {"file": value}})
        proc = subprocess.run(
            [sys.executable, "-m", "etale", "norm", "--model", files["f2"], "--config", cfg],
            input='[{"unit": 0, "word": "a", "re": 5}]', capture_output=True, text=True, env=env,
            timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: expected a file path, got {value!r}\n"
    script = ("import etale\n"
              "f = etale.delta(etale.group_model(etale.FreeGroup(1)), etale.GroupoidElement(0, (1,)))\n"
              "for save, obj in ((etale.save_function, f), (etale.save_model, f.model)):\n"
              "    try:\n"
              "        save(obj, 1)\n"
              "    except etale.ModelError as exc:\n"
              "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "expected a file path, got 1\n" * 2)


def test_refusals_print_no_traceback(files):
    # a RecursionError or a hang would take the test runner with it, so each
    # input runs in a child process
    nested = files["root"] / "nested.json"
    nested.write_text("[" * 100_000)
    cases = [("powerseq", "f2", {"function": [{"unit": 0, "word": "a", "re": 1e100}],
                                 "n_max": 1}, POWER_OVERFLOW),
             ("powerseq", "z6", {"n_max": 9}, POWER_OVERFLOW),
             ("powerseq", "f2", {"function": {"delta": {"word": "a"}}, "n_max": 1030},
              N_MAX_RANGE),
             # 2^(n_max + 1) would hang the radial charge
             ("powerseq", "f2", {"n_max": 1e300}, N_MAX_RANGE),
             ("growth", "f2", nested, "JSON nested too deeply"),
             ("growth", nested, {}, "JSON nested too deeply"),
             ("extend", "f2", {"alpha": 0.5, "p": 3, "beta_grid": [-1]}, BETA_RANGE),
             ("extend", "f2", {"alpha": 0.5, "p": 2.5, "beta_grid": [-1]}, BETA_RANGE),
             ("extend", "f2", {"alpha": 0.5, "p": 2, "beta_grid": [1e300]}, BETA_RANGE),
             # radii refused from the log of their ball count, which is not formed
             ("delta", "f2", {"radius": 1e7},
              "ball of radius 10000000 needs about 10^4771212.85 elements, budget is 5000000"),
             ("gns", "f2", {"k": 1e300}, "elements, budget is 5000000"),
             # no nonempty sphere to fit an envelope to
             ("growth", "z2_swap", {"k_min": 2},
              "no sphere of radius 2..8 is nonempty: the fibers end at radius 1"),
             ("growth", "z6", {"k_min": 4},
              "no sphere of radius 4..8 is nonempty: the fibers end at radius 3"),
             ("band", "z2_swap", {"q": 2, "p": 4, "k_min": 2},
              "no sphere of radius 2..8 is nonempty"),
             # ceil(n log(1/eps)) of an infinite float
             ("haagerup", "f2", {"n_list": [1e308]},
              "every vanishing radius n log(1/eps) must be a finite float")]
    # loops refused from their length before any step, each within a second,
    # where the f2 growths used to fail after 1.7 s (K = 9,100) or write a
    # 75 MB report in 5 s (K = 9,011), and the others ran past 8 s
    bounded = [("growth", "z6", {"K": 1e8},
                "growth table of radius 100000000 needs 100000001 radii, budget is 5000000"),
               ("growth", "f2", {"K": 9100},
                "growth table of radius 9100 needs 39514753 digits, budget is 5000000"),
               ("growth", "f2", {"K": 9011},
                "growth table of radius 9011 needs 38745649 digits, budget is 5000000"),
               ("extend", "z6", {"alpha": 0.5, "p": 2, "K": 1e8},
                "extension series of radius 100000000 needs 100000001 radii"),
               # no crossing: the witness ratios of alpha = 0.5 at q = 2 decay
               ("certify", "f2", {"q": 2, "p": 4, "alpha": 0.5, "witness_cap": 1e9},
                "witness scan of radius 1000000000 needs 1000000001 radii"),
               ("haagerup", "z", {"n_list": [1e6], "k_list": [1e9]},
                "Haagerup sup scan needs 746000001 lengths, budget is 5000000")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for (op, model, cfg, message), timeout in ([(case, 10) for case in cases]
                                               + [(case, 1) for case in bounded]):
        model = model if isinstance(model, Path) else files[model]
        cfg = cfg if isinstance(cfg, Path) else write_cfg(files, "refused", cfg)
        argv = [op, "--model", str(model), "--config", str(cfg)]
        proc = subprocess.run([sys.executable, "-m", "etale", *argv], capture_output=True,
                              text=True, env=env, timeout=timeout)
        err = proc.stderr.splitlines()
        assert proc.returncode == 2 and len(err) == 1, (argv, proc.stderr[-300:])
        assert err[0].startswith("error:") and message in err[0]


def test_faults_propagate_out_of_main(files, monkeypatch):
    # only the refusals of errors.py and OSError exit 2: a builtin exception
    # raised by a bug leaves main with its traceback
    for fault in (KeyError("k"), TypeError("t"), ValueError("x")):
        def handler(*args, fault=fault):
            raise fault
        monkeypatch.setitem(etale.cli.HANDLERS, "growth", handler)
        with pytest.raises(type(fault)) as err:
            main(["growth", "--model", files["f2"]])
        assert err.value is fault


EDGE_VALUES = [0, -1, 1, 2, 0.5, 1e-300, [], [0], {}, "x", None, True]
# the required keys of the operations that have any
REQUIRED_KEYS = {"extend": {"alpha": 0.5, "p": 2}, "band": {"q": 2, "p": 4},
                 "certify": {"q": 2, "p": 4}}


def _nested_configs(value, word):
    """Configs that put ``value`` at each key nested in pdcheck's ``mode`` and
    ``kernel`` and in a function spec; ``word`` is a word of the model."""
    entry = {"unit": 0, "word": word, "re": 1.0}
    for cfg in ({"mode": {"ball": value}}, {"mode": {"random": value}},
                {"mode": {"ball": {"k": 1, "unit": value}}}, {"mode": {"ball": {"k": value}}},
                *({"mode": {"random": {key: value}}} for key in ("count", "max_size", "max_len")),
                *({"kernel": {key: value}} for key in ("exp_length", "haagerup", "table")),
                {"kernel": {"table": {"entries": value}}},
                {"kernel": {"table": {"entries": [entry], "radius": value}}},
                *({"kernel": {"table": {"entries": [entry | {key: value}]}}}
                  for key in ("unit", "word", "re", "im"))):
        yield "pdcheck", cfg
    for spec in ({"sphere": value}, {"sphere_weighted": value}, {"delta": value}, {"file": value},
                 *({"sphere_weighted": {"alpha": 0.5, "k": 1, key: value}}
                   for key in ("alpha", "k")),
                 *({"delta": {"word": word, key: value}} for key in ("unit", "word", "re", "im")),
                 *([entry | {key: value}] for key in ("unit", "word", "re", "im"))):
        yield "norm", {"function": spec, "L": 2}


def test_config_sweep_exits_through_refusals(files, tmp_path, monkeypatch, capsys):
    # every operation's config keys, top-level and nested, at edge values on a
    # free and two finite models: each run exits 0 or 1 with a report, or 2
    # through a refusal, and raises nothing
    take_keys, keys = etale.cli.take_keys, {}
    for op in etale.cli.HANDLERS:  # each operation's keys, from its first take_keys
        seen = []
        monkeypatch.setattr(etale.cli, "take_keys",
                            lambda obj, defaults: seen.append(defaults) or take_keys(obj, defaults))
        main([op, "--model", files["f2"]])
        keys[op] = list(seen[0])
    monkeypatch.undo()
    cfg_path, codes, faults = tmp_path / "config.json", {}, []
    for model, word in (("f2", "a"), ("z6", 1), ("z2_swap", 1)):
        runs = [(op, REQUIRED_KEYS.get(op, {}) | {key: value})
                for op in keys for key in keys[op] for value in EDGE_VALUES]
        runs += [run for value in EDGE_VALUES for run in _nested_configs(value, word)]
        for op, cfg in runs:
            cfg_path.write_text(json.dumps(cfg))
            try:
                code = main([op, "--model", files[model], "--config", str(cfg_path)])
                codes[code] = codes.get(code, 0) + 1
            except Exception as exc:  # collected, to name every faulty input at once
                faults.append((op, model, cfg, repr(exc)))
            capsys.readouterr()
    assert faults == []
    assert set(codes) == {0, 1, 2}


def test_console_script_installed(files, tmp_path):
    exe = shutil.which("etale")
    assert exe is not None
    proc = subprocess.run([exe, "growth", "--model", files["f2"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["operation"] == "growth"


def test_traced_entry_points_exist():
    # bench/layertrace.py wraps each of these names with no fallback, so one
    # deleted from etale would break every traced bench run
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for layer, names in layertrace.ENTRY_POINTS.items():
        module = importlib.import_module(f"etale.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"etale.{layer}.{name} is gone"
