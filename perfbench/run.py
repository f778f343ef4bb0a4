"""The illposed benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric instead.  The line before it records the run: git SHA, library
versions, BLAS library and thread pin, nproc, seed, and the facts behind the
metrics (pass count, tail percentile, failed share, failure messages).
Workloads, metrics and their layer map are described in README.md beside
this file.
"""

import argparse
import json
import os
import sys

# pinned before numpy is imported anywhere; one thread is both the fastest
# and the steadiest setting at these sizes on small shared machines
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Exits with code 2 when the checkout holds no illposed sources, so an
    installed copy elsewhere can never be measured by mistake.
    """
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "illposed", "__init__.py")):
        sys.exit(f"error: no illposed sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    result, facts = harness.run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace), ROOT)
    meta = run_metadata(args.seed)
    meta.update(workload=workload.name, trace=args.trace, **facts)
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
