"""Benchmark command: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The same object,
the check details and (when traced) the spans are written under
perfbench/out/. Exit code 0 when every check passed and no operation
failed, 1 when not, 2 when the package or the arguments are missing.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS thread: the toy matrices are too small to gain from more, and a
# second thread only widens the spread between runs on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def process_age_s() -> float:
    """Seconds since this process started (falls back to since import)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sparsevla", "__init__.py")):
        print(f"perfbench: no sparsevla package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            process_age_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({k: out[k] for k in ("result", "checks", "info")}, fh, indent=1)
    if out["spans"] is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                       "spans": out["spans"]}, fh)
    for name, res in out["checks"].items():
        print(f"check {name}: {'ok' if res['ok'] else 'FAILED'} - {res['detail']}",
              file=sys.stderr)
    print(json.dumps(out["result"]))
    res = out["result"]
    return 0 if res["correct"] and not res["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
