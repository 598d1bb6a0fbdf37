"""The two workloads: fixed query lists whose seeded inputs come from --seed.

A query is one ``etale.cli.main`` call.  Every run issues whole rounds of
the same list, so per-round figures do not depend on how many rounds fit.
Seeds change only coefficient values and sampled tuples, never the sizes
of balls and operators, so the work per round moves with the seed only
through iteration counts and sampled tuple sizes.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Power iteration on the Z path graph needs 0.7-0.8 L^2 steps at tol 1e-10,
# and seeded coefficients can leave a small gap below the top singular value.
MAX_ITER = 100_000

ODD_FAULT = ("power iteration starts from the all-ones vector, which is "
             "orthogonal to the top singular vector of an odd function")


@dataclass
class Query:
    qid: str
    op: str
    model: str          # stem of a file in models/
    config: dict
    known_fault: str | None = None  # why this query fails until the program is fixed

    def argv(self, root: Path, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        return [self.op, "--model", str(root / "models" / f"{self.model}.json"),
                "--config", str(config_path), "--out", str(out_dir), "--seed", str(seed)]


def _entries(coeffs):
    return [{"unit": u, "word": w, "re": v} for (u, w), v in coeffs]


def _coefficient(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 1.5), 6)


def _nonradial_f2(rng: random.Random):
    """Positive self-adjoint coefficients on S_1 and four words of S_2: not
    radial.  Positive, so the all-ones start vector is not orthogonal to the
    answer; self-adjoint, so the top of the spectrum is well separated."""
    out = []
    for w, w_inv in (("a", "A"), ("b", "B"), ("a b", "B A"), ("b a", "A B")):
        c = _coefficient(rng)
        out += [((0, w), c), ((0, w_inv), c)]
    return _entries(out)


def _unit_dependent_f2_32(rng: random.Random, action):
    """A seeded positive coefficient for every generator on every one of the
    32 units, so the fiber operators differ from unit to unit.  Each
    ``(u, x)`` and its inverse ``(u.x, x^-1)`` share a coefficient, so the
    function is self-adjoint; the power iteration took 100,000 steps without
    converging on unit 6 of seed 19 when the coefficients were independent."""
    out = []
    for u in range(len(action[0])):
        for x, x_inv, perm in (("a", "A", action[0]), ("b", "B", action[1])):
            c = _coefficient(rng)
            out += [((u, x), c), ((perm[u], x_inv), c)]
    return _entries(out)


def norm_ladder(seed: int, models: Path) -> tuple[list[Query], dict]:
    rng = random.Random(seed)
    action = json.loads((models / "f2_32units.json").read_text())["action"]
    files = {f"nonradial{i}": _nonradial_f2(rng) for i in range(3)}
    files.update({f"unitdep{i}": _unit_dependent_f2_32(rng, action) for i in range(2)})
    q = []
    for L in range(3, 11):
        q.append(Query(f"f2-chi1-L{L}", "norm", "f2", {"L": L}))
    for k, L in ((2, 6), (2, 7), (3, 6)):
        q.append(Query(f"f2-chi{k}-L{L}", "norm", "f2", {"function": {"sphere": k}, "L": L}))
    for alpha, k, L in ((0.5, 2, 7), (0.7, 1, 8), (0.3, 3, 7)):
        q.append(Query(f"f2-weighted-a{alpha}-k{k}-L{L}", "norm", "f2",
                       {"function": {"sphere_weighted": {"alpha": alpha, "k": k}}, "L": L}))
    for i, L in enumerate((6, 7, 8)):
        q.append(Query(f"f2-nonradial{i}-L{L}", "norm", "f2",
                       {"function": {"file": f"nonradial{i}"}, "L": L, "ladder": [3, 5, L],
                        "max_iter": MAX_ITER}))
    q.append(Query("f2-delta-a-L5", "norm", "f2", {"function": {"delta": {"word": "a"}}, "L": 5}))
    for L in (10, 25, 50, 100, 150, 300):
        q.append(Query(f"z-chi1-L{L}", "norm", "z", {"L": L, "max_iter": MAX_ITER}))
    q.append(Query("z-chi2-L12", "norm", "z",
                   {"function": {"sphere": 2}, "L": 12, "max_iter": MAX_ITER}))
    q.append(Query("z-weighted-L60", "norm", "z",
                   {"function": {"sphere_weighted": {"alpha": 0.5, "k": 1}}, "L": 60,
                    "max_iter": MAX_ITER}))
    for L in (5, 6):
        q.append(Query(f"f2_32-chi1-L{L}", "norm", "f2_32units", {"L": L}))
    for i in range(2):
        q.append(Query(f"f2_32-unitdep{i}-L3", "norm", "f2_32units",
                       {"function": {"file": f"unitdep{i}"}, "L": 3, "max_iter": MAX_ITER}))
    for k in (1, 2, 3):
        q.append(Query(f"z6-chi{k}", "norm", "z6", {"function": {"sphere": k}}))
    q.append(Query("z6-weighted", "norm", "z6",
                   {"function": {"sphere_weighted": {"alpha": 0.5, "k": 1}}}))
    q.append(Query("z2_swap-chi1", "norm", "z2_swap", {}))
    q.append(Query("z2_swap-delta", "norm", "z2_swap",
                   {"function": {"delta": {"unit": 1, "word": 1}}}))
    odd_z = [{"unit": 0, "word": "a", "re": 1}, {"unit": 0, "word": "A", "re": -1}]
    odd_f2 = [{"unit": 0, "word": w, "re": s} for w, s in (("a", 1), ("A", 1), ("b", -1), ("B", -1))]
    q.append(Query("z-odd-L8", "norm", "z", {"function": odd_z, "L": 8}, ODD_FAULT))
    q.append(Query("f2-odd-L4", "norm", "f2", {"function": odd_f2, "L": 4}, ODD_FAULT))
    q.append(Query("f2-odd-L6", "norm", "f2", {"function": odd_f2, "L": 6}, ODD_FAULT))
    q.append(Query("f2-chi1-L8-repeat", "norm", "f2", {"L": 8}))
    return q, files


FREE = ("f2", "z", "f2_32units")
ALL = FREE + ("z2_swap", "z6")


def op_sweep(seed: int, models: Path) -> tuple[list[Query], dict]:
    del seed, models  # seeded inputs here are the CLI's own --seed draws
    random_mode = {"random": {"count": 60, "max_size": 12, "max_len": 4}}
    q = []
    for m in ALL:
        q.append(Query(f"growth-{m}", "growth", m, {"K": 12}))
    for m, cfg in (("f2", {"radius": 4, "quad_budget": 700_000_000}),
                   ("z", {"radius": 40}),
                   ("f2_32units", {"radius": 3, "units": [0, 5, 17, 31]}),
                   ("z2_swap", {"radius": 3, "units": "all"}),
                   ("z6", {"radius": 3})):
        q.append(Query(f"delta-{m}", "delta", m, cfg))
    for m in ALL:
        q.append(Query(f"pdcheck-random-{m}", "pdcheck", m,
                       {"kernel": {"exp_length": 0.6}, "mode": random_mode}))
    q.append(Query("pdcheck-ball-f2", "pdcheck", "f2",
                   {"kernel": {"haagerup": 2.0}, "mode": {"ball": {"unit": 0, "k": 3}}}))
    for m, k in (("f2", 3), ("f2", 4), ("z", 12), ("f2_32units", 3), ("z2_swap", 1), ("z6", 3)):
        q.append(Query(f"gns-{m}-k{k}", "gns", m, {"kernel": {"exp_length": 0.5}, "k": k}))
    for m in ALL:
        q.append(Query(f"haagerup-{m}", "haagerup", m, {}))
    for m in ALL:
        q.append(Query(f"bandcheck-{m}", "bandcheck", m, {"k": 3}))
    for m, cfg in (("f2", {"L": 8}), ("z", {"L": 60, "max_iter": MAX_ITER}),
                   ("f2_32units", {"L": 6}), ("z2_swap", {}), ("z6", {})):
        q.append(Query(f"norm-{m}", "norm", m, cfg))
    for m in FREE:
        q.append(Query(f"powerseq-radial-{m}", "powerseq", m, {"n_max": 6}))
    f2_sparse = [{"unit": 0, "word": "a", "re": 1.0}, {"unit": 0, "word": "b", "re": 0.5}]
    for m, fn in (("f2", f2_sparse), ("z2_swap", {"sphere": 1}), ("z6", {"sphere": 1})):
        q.append(Query(f"powerseq-sparse-{m}", "powerseq", m, {"function": fn, "n_max": 2}))
    for m in ALL:
        q.append(Query(f"normbound-{m}", "normbound", m, {"alpha": 0.5, "k": 2, "L": 5}))
    for m in ALL:
        for alpha, p in ((0.5, 2), (0.8, 4)):
            q.append(Query(f"extend-{m}-a{alpha}-p{p}", "extend", m, {"alpha": alpha, "p": p}))
    for m in ("f2", "f2_32units"):
        q.append(Query(f"band-{m}", "band", m, {"q": 2, "p": 4, "K": 12}))
        q.append(Query(f"certify-{m}", "certify", m, {"q": 2, "p": 4}))
    q.append(Query("bandcheck-f2_32units-repeat", "bandcheck", "f2_32units", {"k": 3}))
    return q, {}


WORKLOADS = {"norm-ladder": norm_ladder, "op-sweep": op_sweep}


def write_inputs(workload: str, seed: int, models: Path,
                 inputs: Path) -> list[tuple[Query, Path]]:
    """Write every query's config (and function files) under ``inputs``;
    return the queries with their config paths."""
    queries, files = WORKLOADS[workload](seed, models)
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, entries in files.items():
        paths[name] = inputs / f"{name}.json"
        paths[name].write_text(json.dumps(entries, indent=1) + "\n")
    out = []
    for i, q in enumerate(queries):
        fn = q.config.get("function")
        if isinstance(fn, dict) and "file" in fn:
            q.config = dict(q.config, function={"file": str(paths[fn["file"]])})
        cfg = inputs / f"q{i:03d}.json"
        cfg.write_text(json.dumps(q.config, sort_keys=True) + "\n")
        out.append((q, cfg))
    return out
