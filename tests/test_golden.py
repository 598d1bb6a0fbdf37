"""Golden reports: every CLI operation on every example model it applies to.

Each case runs ``etale OP --model models/M.json --config CFG --out DIR`` and
compares the exit code and every file written under ``DIR`` byte for byte
with ``tests/golden/OP-M/``.  Configs are the defaults with the required
keys filled in and ``norm`` cut to ``L: 4``, so the whole set runs in
seconds.
``band`` and ``certify`` need exponential growth, so on the other models
only their exit code (2) is pinned.  ``EXTRA`` adds ``norm`` of functions
whose values depend on the unit, where the units are ranked before any
ladder is solved: a seeded self-adjoint f on ``f2_32units``, and
``z2_swap``'s delta at unit 1, whose two units tie.  It also adds
``pdcheck``'s random mode at the benchmark's size on ``f2`` and ``z6``, the
same draw with a unit-dependent table kernel on ``z2_swap``, ``gns`` at
k = 3 on ``f2`` and ``f3``, ball-mode ``pdcheck`` of ``haagerup`` 2.0 at k = 3
on ``f3`` (F₃'s root-stabilizer blocks repeat with other multiplicities than
F₂'s), and the four operations that compute δ (``delta``,
``bandcheck``, ``normbound``, ``certify``) on ``f3``, F₃ on one unit.

A change that alters a report on purpose rewrites the goldens with

    PYTHONPATH=src python3 tests/test_golden.py

and the diff of ``tests/golden/`` shows every changed byte.
"""
import copy
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from etale.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MODELS = ("f2", "z", "f2_32units", "z2_swap", "z6")

CONFIGS = {
    "growth": {},
    "delta": {},
    "pdcheck": {},
    "gns": {},
    "haagerup": {},
    "bandcheck": {},
    "norm": {"L": 4},
    "powerseq": {},
    "normbound": {},
    "extend": {"alpha": 0.65, "p": 2},
    "band": {"q": 2, "p": 4},
    "certify": {"q": 2, "p": 4},
}


def unit_dependent_f2_32(seed: int) -> list:
    """A coefficient in [0.5, 1.5] drawn from ``seed`` for each generator at
    each of the 32 units; ``(u, x)`` and its inverse ``(u.x, x^-1)`` share
    it, so f is self-adjoint."""
    action = json.loads((ROOT / "models" / "f2_32units.json").read_text())["action"]
    rng, out = random.Random(seed), []
    for u in range(len(action[0])):
        for x, x_inv, perm in (("a", "A", action[0]), ("b", "B", action[1])):
            c = round(rng.uniform(0.5, 1.5), 6)
            out += [{"unit": u, "word": x, "re": c}, {"unit": perm[u], "word": x_inv, "re": c}]
    return out


RANDOM = {"random": {"count": 60, "max_size": 12, "max_len": 4}}

# Hermitian on z2_swap: (u, 1) and its inverse (1 - u, 1) carry conjugate values
SWAP_TABLE = {"table": {"entries": [
    {"unit": 0, "word": 0, "re": 1.0}, {"unit": 1, "word": 0, "re": 0.8},
    {"unit": 0, "word": 1, "re": 0.3, "im": 0.4}, {"unit": 1, "word": 1, "re": 0.3, "im": -0.4}]}}

EXTRA = {
    "norm-f2_32units-unitdep": ("norm", "f2_32units",
                                {"function": unit_dependent_f2_32(19), "L": 3,
                                 "ladder": [1, 2, 3]}),
    "norm-z2_swap-delta": ("norm", "z2_swap", {"function": {"delta": {"unit": 1, "word": 1}}}),
    "pdcheck-random-f2": ("pdcheck", "f2", {"kernel": {"exp_length": 0.6}, "mode": RANDOM}),
    "pdcheck-random-z6": ("pdcheck", "z6", {"kernel": {"exp_length": 0.6}, "mode": RANDOM}),
    "pdcheck-random-z2_swap-table": ("pdcheck", "z2_swap", {"kernel": SWAP_TABLE, "mode": RANDOM}),
    "gns-f2-k3": ("gns", "f2", {"k": 3}),
    "gns-f3": ("gns", "f3", {"k": 3}),
    "pdcheck-f3": ("pdcheck", "f3", {"kernel": {"haagerup": 2.0},
                                     "mode": {"ball": {"unit": 0, "k": 3}}}),
}
# the four operations that compute delta, on a free group of rank 3, where
# delta is 0 by theorem
EXTRA |= {f"{op}-f3": (op, "f3", CONFIGS[op])
          for op in ("delta", "bandcheck", "normbound", "certify")}

# (golden directory, operation, model, config)
CASES = [(f"{op}-{m}", op, m, CONFIGS[op]) for op in CONFIGS for m in MODELS]
CASES += [(name, *case) for name, case in EXTRA.items()]


def run_case(op: str, model: str, config: dict, tmp: Path) -> Path:
    """Run one case under ``tmp``; return the directory holding the CLI's
    files plus ``exit_code``."""
    cfg, out = tmp / "config.json", tmp / "out"
    cfg.write_text(json.dumps(config))
    out.mkdir()
    code = main([op, "--model", str(ROOT / "models" / f"{model}.json"),
                 "--config", str(cfg), "--out", str(out)])
    (out / "exit_code").write_text(f"{code}\n")
    return out


def files_under(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def regenerate() -> None:
    """Rewrite every golden directory from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, op, model, config in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run_case(op, model, config, Path(tmp)), GOLDEN / name)


@pytest.mark.parametrize("name,op,model,config", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, op, model, config, tmp_path):
    got = files_under(run_case(op, model, config, tmp_path))
    want = files_under(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for file in want:
        assert got[file] == want[file], f"{name}: {file} differs"


# Each golden with a report is checked by the bench's own oracles
# (bench/checks.py, on bench/oracles.py, which share no code with etale),
# imported as bench/run.py imports them.  The oracle wants exit code 0.  Every
# perturbation of checks.MUTATIONS that applies to the report, as
# bench/selftest.py applies them, must be rejected, and so must a bump of each
# field below.  Refusals (exit 2) write no report.  oracles.kernel_fn has no
# reference for a table kernel, so the z2_swap table golden is left out.
ORACLE_FIELDS = {"delta": ("delta", "overlap_constant"), "bandcheck": ("delta", "overlap"),
                 "normbound": ("overlap",)}
NO_ORACLE = {"pdcheck-random-z2_swap-table"}
ORACLE_CASES = [c for c in CASES
                if c[0] not in NO_ORACLE and (GOLDEN / c[0] / "report.json").is_file()]


@pytest.fixture(scope="module")
def bench_checks():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return checks, workloads, checks.Context(ROOT, seed=0)


@pytest.mark.parametrize("name,op,model,config", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_golden_passes_the_bench_oracle(name, op, model, config, bench_checks):
    checks, workloads, ctx = bench_checks
    query = workloads.Query(name, op, model, config)
    report = json.loads((GOLDEN / name / "report.json").read_text())
    tables = {p.stem: [line.split(",") for line in p.read_text().splitlines()]
              for p in (GOLDEN / name).glob("tables/*.csv")}
    code = int((GOLDEN / name / "exit_code").read_text())
    assert checks.check(ctx, query, code, report, tables) == []
    applied = 0
    for label, mutate in checks.MUTATIONS[op]:
        mutated = copy.deepcopy(report)
        try:
            mutate(mutated)
        except TypeError:  # the field is null in this report
            continue
        applied += 1
        assert checks.check(ctx, query, code, mutated, tables), f"{label} passes"
    for field in ORACLE_FIELDS.get(op, ()):
        bumped = copy.deepcopy(report)
        bumped["results"][field] += 1
        assert checks.check(ctx, query, code, bumped, tables), f"{field} bumped passes"
    assert applied


if __name__ == "__main__":
    regenerate()
