#!/usr/bin/env python3
"""Shows that no output check is vacuous.

Runs one round of each workload and requires that every output passes its
check, except the known-fault queries, which must be rejected.  Then, for
every passing output, applies each perturbation in ``checks.MUTATIONS`` for
its operation (a value off by 1e-6, a flipped verdict, a wrong count) and
requires the check to reject it.

    python3 bench/selftest.py [--seed N]
"""
from __future__ import annotations

import argparse
import copy
import os
import shutil
import sys

import run  # sets the BLAS thread variables before numpy is imported
import checks
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args(argv).seed
    bad = 0
    for w in sorted(workloads.WORKLOADS):
        work = run.WORK / f"selftest-{w}-{os.getpid()}"
        try:
            bad += _selftest(w, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


def _selftest(w: str, seed: int, work) -> int:
    """Mismatches found on one workload: correct outputs rejected or
    perturbed outputs accepted."""
    etale, queries = run.prepare(w, seed, work)
    records = run.run_rounds(etale, queries, work / "out", seed, 0, rounds=1)
    ctx = checks.Context(run.ROOT, seed)
    bad = rejected = 0
    for rec in records:
        q = queries[rec.index][0]
        rep, tables = run.parse_outputs(rec.outputs)
        problems = checks.check(ctx, q, rec.rc, rep, tables)
        if q.known_fault is not None:
            if not problems:
                print(f"{w} {q.qid}: known fault no longer shows; the check passes")
            rejected += bool(problems)
            continue
        if problems:
            print(f"{w} {q.qid}: correct output rejected: {problems}")
            bad += 1
            continue
        applied = 0
        for name, mutate in checks.MUTATIONS[q.op]:
            mutated = copy.deepcopy(rep)
            try:
                mutate(mutated)
            except TypeError:  # the field is null in this report (e.g. no growth rate)
                continue
            applied += 1
            if checks.check(ctx, q, rec.rc, mutated, tables):
                rejected += 1
            else:
                print(f"{w} {q.qid}: perturbation not rejected: {name}")
                bad += 1
        if not applied:
            print(f"{w} {q.qid}: no perturbation applies")
            bad += 1
    print(f"{w}: {len(records)} outputs checked, {rejected} perturbed or faulty outputs rejected")
    return bad


if __name__ == "__main__":
    sys.exit(main())
