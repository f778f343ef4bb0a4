#!/usr/bin/env python3
"""The round-off gate: run the gate sweeps of a checkout, and compare two runs.

``run OUTDIR`` runs 15 sweeps with the ``illposed`` that Python imports, so
``PYTHONPATH=<checkout>/src`` picks the checkout.  Each sweep uses the CLI
defaults (method both, deltas 1e-1..1e-4, seed 42) unless named otherwise:

- diag-unbounded, volterra-int and fredholm-gauss at n = 64 and 512, and at
  n = 64 with ``--alpha0 0 --method variational``;
- autoconv at n = 16 and 64, seeds 1, 2 and 3.

Each sweep writes ``NAME.csv`` and ``NAME.out``: the console summary without
its timings, so it keeps each row's solver failure, and the exit code.  BLAS
runs on one thread, pinned before numpy is imported, and the run writes that
count to ``blas_threads``: on two threads the same code moves linear n=512
quasi rows by up to 7e-6 relative, far above the round-off this gate reads.

``compare DIR_A DIR_B`` prints, per file, the rows, verdicts, solver errors
and exit codes that differ, the largest relative change of each numeric
column per method, and whether the CSVs are byte-identical; it ends with the
count of byte-identical CSVs, ``byte-identical: K of N``.  It exits 1 when
the BLAS thread counts of the two runs differ (a run without the file counts
as unpinned), when a file is missing or rows, verdicts, solver errors or
exit codes differ, else 0.

    PYTHONPATH=../parent/src python scripts/csv_gate.py run gate/parent
    PYTHONPATH=src python scripts/csv_gate.py run gate/change
    python scripts/csv_gate.py compare gate/parent gate/change
"""

import argparse
import contextlib
import csv
import io
import math
import os
import re
import sys

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_FILE = "blas_threads"
LINEAR = ("diag-unbounded", "volterra-int", "fredholm-gauss")
SEEDS = (1, 2, 3)
NUMERIC = ("error_l2", "residual_noisy", "residual_exact", "phi_u", "F_value",
           "lambda_star")
TIMING = re.compile(r" \(\d+(\.\d+)? ms\)$")


def sweeps(linear_ns, autoconv_ns):
    """(file stem, CLI flags) of every gate sweep."""
    runs = []
    for name in LINEAR:
        for n in linear_ns:
            runs.append((f"{name}-n{n}", ["--problem", name, "--n", str(n)]))
        runs.append((f"{name}-n{linear_ns[0]}-alpha0-0",
                     ["--problem", name, "--n", str(linear_ns[0]), "--alpha0", "0",
                      "--method", "variational"]))
    for n in autoconv_ns:
        for seed in SEEDS:
            runs.append((f"autoconv-n{n}-seed{seed}",
                         ["--problem", "autoconv", "--n", str(n), "--seed", str(seed)]))
    return runs


def run(outdir, linear_ns, autoconv_ns):
    for name in BLAS_ENV:   # before numpy is first imported, below
        os.environ[name] = str(BLAS_THREADS)
    import illposed
    from illposed.cli import main

    print(f"illposed from {os.path.dirname(illposed.__file__)}")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, THREADS_FILE), "w", encoding="utf-8") as fh:
        fh.write(f"{BLAS_THREADS}\n")
    for stem, flags in sweeps(linear_ns, autoconv_ns):
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            code = main(["sweep", *flags, "--out", os.path.join(outdir, stem + ".csv")])
        lines = [TIMING.sub("", line) for line in summary.getvalue().splitlines()
                 if not line.startswith("total wall time:")]
        with open(os.path.join(outdir, stem + ".out"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [f"exit: {code}"]) + "\n")
        print(f"{stem}: exit {code}")
    return 0


def read_run(directory, stem):
    """(CSV bytes, CSV rows, solver error of each row or None, exit code)."""
    with open(os.path.join(directory, stem + ".csv"), "rb") as fh:
        raw = fh.read()
    rows = list(csv.DictReader(io.StringIO(raw.decode("ascii"))))
    with open(os.path.join(directory, stem + ".out"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    errors = [line.split("[SOLVER FAILURE (", 1)[1].rsplit(")]", 1)[0]
              if "[SOLVER FAILURE (" in line else None
              for line in lines if line.startswith("delta=")]
    code = next((line[len("exit: "):] for line in lines if line.startswith("exit: ")),
                None)
    return raw, rows, errors, code


def relative_change(a, b):
    if a == b:
        return 0.0
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 and math.isfinite(scale) else math.inf


def compare_file(dir_a, dir_b, stem):
    """Print the differences of one sweep; (whether rows, verdicts, errors and
    exit codes match, whether the CSVs are byte-identical)."""
    raw_a, rows_a, errors_a, code_a = read_run(dir_a, stem)
    raw_b, rows_b, errors_b, code_b = read_run(dir_b, stem)
    identical = raw_a == raw_b
    print(f"== {stem}: {'byte-identical' if identical else 'differs'}")
    same = code_a == code_b
    if not same:
        print(f"   exit code {code_a} against {code_b}")
    if identical and errors_a == errors_b:
        return same, identical
    keys_a = [(row["delta"], row["method"]) for row in rows_a]
    keys_b = [(row["delta"], row["method"]) for row in rows_b]
    if keys_a != keys_b:
        print(f"   rows differ: {keys_a} against {keys_b}")
        return False, identical
    changes = {}
    for (delta, method), row_a, row_b, err_a, err_b in zip(
            keys_a, rows_a, rows_b, errors_a, errors_b):
        if err_a != err_b:
            print(f"   delta={delta} {method}: solver_error {err_a!r} against {err_b!r}")
            same = False
        for column in row_a:
            a, b = row_a[column], row_b[column]
            if column.startswith("cert_") and a != b:
                print(f"   delta={delta} {method}: {column} {a or '-'} against {b or '-'}")
                same = False
            elif column in NUMERIC and (a == "") != (b == ""):
                print(f"   delta={delta} {method}: {column} {a or '-'} against {b or '-'}")
                same = False
            elif column in NUMERIC and a != "":
                change = relative_change(a, b)
                key = (method, column)
                if change > changes.get(key, (-1.0, None))[0]:
                    changes[key] = (change, delta)
    for (method, column), (change, delta) in sorted(changes.items()):
        print(f"   {method:<11s} {column:<14s} max rel change {change:.2e} "
              f"(delta={delta})")
    return same, identical


def blas_threads(directory):
    """The BLAS thread count a run recorded, or "unpinned"."""
    path = os.path.join(directory, THREADS_FILE)
    if not os.path.exists(path):
        return "unpinned"
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def compare(dir_a, dir_b):
    stems = sorted({name[:-len(".csv")] for d in (dir_a, dir_b) for name in os.listdir(d)
                    if name.endswith(".csv")})
    threads = blas_threads(dir_a), blas_threads(dir_b)
    ok = threads[0] == threads[1]
    print(f"BLAS threads: {threads[0]} against {threads[1]}"
          + ("" if ok else ": the runs are not comparable"))
    identical = 0
    for stem in stems:
        if not all(os.path.exists(os.path.join(d, stem + ext))
                   for d in (dir_a, dir_b) for ext in (".csv", ".out")):
            print(f"== {stem}: missing from one run")
            ok = False
            continue
        same, same_bytes = compare_file(dir_a, dir_b, stem)
        ok, identical = same and ok, identical + same_bytes
    print("rows, verdicts, solver errors and exit codes: "
          + ("identical" if ok else "DIFFER"))
    print(f"byte-identical: {identical} of {len(stems)}")
    return 0 if ok else 1


def sizes(text):
    return tuple(int(x) for x in text.split(","))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="run the gate sweeps into a directory")
    run_cmd.add_argument("outdir")
    run_cmd.add_argument("--linear-n", type=sizes, default=(64, 512),
                         help="grid sizes of the linear sweeps; the first also "
                              "runs alpha0 = 0 (default 64,512)")
    run_cmd.add_argument("--autoconv-n", type=sizes, default=(16, 64),
                         help="grid sizes of the autoconv sweeps (default 16,64)")
    cmp_cmd = sub.add_parser("compare", help="compare the sweeps of two runs")
    cmp_cmd.add_argument("dir_a")
    cmp_cmd.add_argument("dir_b")
    args = parser.parse_args()
    if args.command == "run":
        return run(args.outdir, args.linear_n, args.autoconv_n)
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
