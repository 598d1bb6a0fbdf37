#!/usr/bin/env python3
"""In-process query benchmark for etale.

A query is one ``etale.cli.main([...])`` call made in this process: it
loads its model from file with cold word caches, runs one operation and
writes ``report.json`` and its tables to a scratch ``--out`` directory.
Load is a closed loop, one caller on one thread.  A run issues whole rounds
of its workload's fixed query list until ``--seconds`` have passed, then
checks every output against ``checks.py``.  Each query's time is its
median over the rounds; a round holds at least 40 queries, so its highest
percentile with ten queries beyond it is a tail.

    python3 bench/run.py --workload norm-ladder --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --quick            # one round of each workload
    python3 bench/run.py                    # full runs of each workload

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones of a traced run.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"
TAIL_BEYOND = 10    # a round of at least 40 queries has a tail with ten beyond it
PROBES = 5

import numpy as np  # noqa: E402  (after the BLAS settings)

import workloads  # noqa: E402
from layertrace import COUNT_NAMES  # noqa: E402


def import_etale():
    """Import etale from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "etale" / "cli.py").is_file() or not (ROOT / "models").is_dir():
        raise SystemExit(f"error: no etale sources and models under {ROOT}")
    sys.path.insert(0, str(src))
    import etale.cli
    if Path(etale.__file__).resolve().parent != (src / "etale").resolve():
        raise SystemExit(f"error: imported etale from {etale.__file__}, not {src}")
    return etale


def prepare(workload: str, seed: int, work_dir: Path):
    """Everything before the first query: import etale, write the inputs."""
    etale = import_etale()
    return etale, workloads.write_inputs(workload, seed, ROOT / "models", work_dir / "inputs")


# Time of reference_kernel() on the reference host at its usual speed.
REFERENCE_KERNEL_S = 0.006


def reference_kernel() -> float:
    """Time of a fixed slice of Python dict/tuple work and numpy array work,
    the two kinds of work etale does.  It tracks the host's current speed."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    v = np.arange(20000, dtype=float)
    for _ in range(40):
        v = np.sqrt(v * 1.0001 + 1.0)
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale that turns a time measured between two reference-kernel runs
    into a time at the reference host speed."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


def _time_child(args, env=None) -> float:
    """Wall time of a child process, at the reference host speed."""
    before = reference_kernel()
    t0 = time.perf_counter()
    subprocess.run(args, check=True, env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall * speed_factor(before, reference_kernel())


def setup_samples(workload: str, seed: int, n: int) -> list[float]:
    """Wall time of fresh interpreters doing this run's set-up."""
    out = []
    for i in range(n):
        out.append(_time_child([sys.executable, str(Path(__file__)), "--setup-probe",
                                "--workload", workload, "--seed", str(seed),
                                "--probe-dir", str(WORK / f"probe-{os.getpid()}-{i}")]))
        shutil.rmtree(WORK / f"probe-{os.getpid()}-{i}", ignore_errors=True)
    return out


def import_cost(n: int) -> float:
    """Median fresh-interpreter ``import etale`` less a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, full = [], []
    for _ in range(n):
        bare.append(_time_child([sys.executable, "-c", "pass"], env))
        full.append(_time_child([sys.executable, "-c", "import etale"], env))
    return statistics.median(full) - statistics.median(bare)


@dataclass
class Record:
    round: int
    index: int
    wall: float     # seconds at the reference host speed
    cpu: float      # likewise
    raw_wall: float
    rc: int | None
    stderr: str
    outputs: dict   # relative path -> bytes


def _read_outputs(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def parse_outputs(outputs: dict):
    """The parsed report (None if none was written) and tables as CSV rows."""
    raw = outputs.get("report.json")
    tables = {Path(p).stem: [line.split(",") for line in b.decode().splitlines()]
              for p, b in outputs.items() if p.startswith("tables")}
    return (json.loads(raw) if raw is not None else None), tables


def run_rounds(etale, queries, out_root: Path, seed: int, seconds: float,
               rounds: int | None = None, tracer=None) -> list[Record]:
    """Whole rounds of the query list: exactly ``rounds`` of them, or as many
    as it takes to pass ``seconds``."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        for i, (q, cfg) in enumerate(queries):
            out = out_root / f"q{i:03d}"
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            if tracer is not None:
                tracer.query = (r, i)
            before = reference_kernel()
            err = io.StringIO()
            argv = q.argv(ROOT, cfg, out, seed)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = etale.cli.main(argv)
            except Exception as exc:  # a crash fails this query, not the run
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            t1, c1 = time.perf_counter(), time.process_time()
            scale = speed_factor(before, reference_kernel())
            records.append(Record(r, i, (t1 - t0) * scale, (c1 - c0) * scale, t1 - t0, rc,
                                  err.getvalue(), _read_outputs(out)))
            if tracer is not None:
                tracer.scale[(r, i)] = scale
        r += 1
        if rounds is not None:
            if r >= rounds:
                return records
        elif time.perf_counter() - start >= seconds:
            return records


def check_records(queries, records, seed: int):
    """Check every output.  Returns (failed count, unexpected problems, log)."""
    import checks

    ctx = checks.Context(ROOT, seed)
    first = {}  # identical queries -> (rc, outputs, problems) of the first one run
    failed, unexpected, log = 0, [], []
    for rec in records:
        q = queries[rec.index][0]
        key = (q.op, q.model, json.dumps(q.config, sort_keys=True))
        seen = first.get(key)
        if seen is not None and (rec.rc, rec.outputs) == seen[:2]:
            problems = seen[2]
        else:
            problems = checks.check(ctx, q, rec.rc, *parse_outputs(rec.outputs))
            if rec.stderr:
                problems.append(f"stderr: {rec.stderr.strip()}")
            if seen is None:
                first[key] = (rec.rc, rec.outputs, problems)
            else:
                problems.append("output differs from an identical earlier query")
        if problems:
            failed += 1
            known = q.known_fault is not None
            if not known:
                unexpected.append((q.qid, problems))
            if rec.round == 0:
                log.append({"query": q.qid, "known_fault": q.known_fault, "problems": problems})
    return failed, unexpected, log


def per_query_medians(records, n_queries: int, field: str) -> list[float]:
    """Each query's median over the rounds of a run."""
    samples = [[] for _ in range(n_queries)]
    for r in records:
        samples[r.index].append(getattr(r, field))
    return [statistics.median(s) for s in samples]


def e2e_metrics(records, n_queries: int, setup: list[float]) -> dict:
    """Per-round figures from each query's median over the rounds, so one
    disturbed round moves no metric."""
    wall = sorted(per_query_medians(records, n_queries, "wall"))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (n_queries / sum(wall), "1/s"),
        "query_s.p50": (statistics.median(wall), "s"),
        # the highest percentile of a round with TAIL_BEYOND queries beyond it
        "query_s.tail": (wall[n_queries - TAIL_BEYOND - 1], "s"),
        "cpu_s": (sum(per_query_medians(records, n_queries, "cpu")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment() -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None,
        probes: int) -> dict:
    env = environment()
    reference_kernel()  # the first call runs cold and slow; keep it out of every scale
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    etale, queries = prepare(workload, seed, work)
    setup = []
    out_root = work / "out"
    try:
        if not trace:
            setup = setup_samples(workload, seed, probes)
            records = run_rounds(etale, queries, out_root, seed, seconds, rounds)
            metrics = e2e_metrics(records, len(queries), setup)
        else:
            from layertrace import Tracer
            plain = run_rounds(etale, queries, out_root, seed, seconds, rounds=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(etale, queries, out_root, seed, seconds, rounds, tracer)
            finally:
                tracer.uninstall()
            n_rounds = max(r.round for r in traced) + 1
            for r in traced:
                r.round += 1
            records = plain + traced
            metrics = {k: (v, "count" if k in COUNT_NAMES else "s")
                       for k, v in tracer.layer_metrics(n_rounds).items()}
            metrics["cli.report_bytes"] = (
                sum(len(b) for r in traced for b in r.outputs.values()) / n_rounds, "count")
            metrics["trace.overhead_s"] = (
                sum(r.wall for r in traced) / n_rounds - sum(r.wall for r in plain), "s")
            metrics["import.etale_s"] = (import_cost(probes), "s")
            RESULTS.mkdir(parents=True, exist_ok=True)
            with open(RESULTS / f"{workload}-seed{seed}-spans.jsonl", "w") as fh:
                for name, t0, t1, parent, query in tracer.spans:
                    fh.write(json.dumps([name, t0, t1, parent, query]) + "\n")
        failed, unexpected, log = check_records(queries, records, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n_rounds = max(r.round for r in records) + 1
    per_query = dict(zip((q.qid for q, _ in queries),
                         per_query_medians(records, len(queries), "wall")))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": int(v) if u == "count" and v == int(v) else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": n_rounds, "queries_per_round": len(queries), "env": env,
              "setup_samples_s": setup, "failures": log, "unexpected": unexpected,
              "query_s_median": per_query, "result": result,
              "samples": [[r.round, r.index, r.wall, r.cpu, r.raw_wall] for r in records]}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for qid, problems in unexpected:
        print(f"FAILED {qid}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"env": env, "rounds": n_rounds, "queries_per_round": len(queries)}))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="the workload to run (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one round and one set-up probe, every check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        prepare(args.workload, args.seed, Path(args.probe_dir))
        return 0
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    ok = True
    for w in names:
        result = run(w, args.seed, args.seconds, bool(args.trace),
                     rounds=1 if args.quick else None, probes=1 if args.quick else PROBES)
        ok = ok and result["correct"]
        print(json.dumps(result if args.workload else dict(result, workload=w)))
    # one workload reports correctness in its result line; a run of every
    # workload also reports it through the exit code
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
