"""Golden reports: every CLI operation on every example model it applies to.

Each case runs ``etale OP --model models/M.json --config CFG --out DIR`` and
compares the exit code and every file written under ``DIR`` byte for byte
with ``tests/golden/OP-M/``.  Configs are the defaults with the required
keys filled in and ``norm`` cut to ``L: 4``, so the whole set runs in
seconds.
``band`` and ``certify`` need exponential growth, so on the other models
only their exit code (2) is pinned.

A change that alters a report on purpose rewrites the goldens with

    PYTHONPATH=src python3 tests/test_golden.py

and the diff of ``tests/golden/`` shows every changed byte.
"""
import json
import shutil
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

CASES = [(op, m) for op in CONFIGS for m in MODELS]


def run_case(op: str, model: str, tmp: Path) -> Path:
    """Run one case under ``tmp``; return the directory holding the CLI's
    files plus ``exit_code``."""
    cfg, out = tmp / "config.json", tmp / "out"
    cfg.write_text(json.dumps(CONFIGS[op]))
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
    for op, model in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run_case(op, model, Path(tmp)), GOLDEN / f"{op}-{model}")


@pytest.mark.parametrize("op,model", CASES, ids=[f"{op}-{m}" for op, m in CASES])
def test_golden_report(op, model, tmp_path):
    got = files_under(run_case(op, model, tmp_path))
    want = files_under(GOLDEN / f"{op}-{model}")
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{op}-{model}: {name} differs"


if __name__ == "__main__":
    regenerate()
