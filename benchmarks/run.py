#!/usr/bin/env python3
"""rotalign benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Workloads are ``campaign``, ``verify`` and ``sampled`` (see workloads.py).
Load is a closed loop with one caller, in this one process on one thread;
BLAS/OpenMP pools are pinned to one thread before numpy loads.

``--trace 0`` measures the program unmodified and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced blocks of the same
operations (see tracing.py) and prints the per-layer metrics, including
the tracing overhead between the two.  The last line of standard output is
the result JSON; the line before it carries provenance and details.  The
exit code is 1 when a correctness check fails or the package is missing.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_REPEATS = 9

# The program calls the workloads make, by module; traced, each becomes the
# span "<module>.<name>".  Only names in a module's __all__ are allowed, so
# the package's private helpers can change without touching the benchmark.
API = {
    "main": "cli",
    "detect": "registration",
    "oracle_detect": "registration",
    "detect_sampled": "registration",
    "sample": "fields",
    "total_rotate": "fields",
}


def load_program():
    """Import rotalign from this checkout's src/ and from nowhere else."""
    package = SRC / "rotalign"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rotalign package under {SRC}; "
                         "run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import rotalign
    if Path(rotalign.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported rotalign from {rotalign.__file__}, "
                         f"not from {package}")
    return rotalign


def program_api(tracer=None):
    """The calls a workload makes; wrapped in spans when a tracer is given."""
    api = SimpleNamespace()
    for name, module in API.items():
        mod = importlib.import_module("rotalign." + module)
        if name not in getattr(mod, "__all__", ()):
            raise SystemExit(f"run.py: rotalign.{module}.{name} is not public")
        fn = getattr(mod, name)
        if tracer is not None:
            from tracing import OBSERVERS
            span = f"{module}.{name}"
            fn = tracer.wrap(span, fn, OBSERVERS.get(span))
        setattr(api, name, fn)
    return api


def git_commit():
    """The checked-out commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import the program, build the inputs, print the seconds taken."""
    t0 = perf_counter()
    load_program()
    import workloads
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        workloads.WORKLOADS[workload](seed, tmp, program_api())
        print(repr(perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list:
    """Set-up time of fresh processes, each timed from inside, several times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Loop:
    wall_s: float
    latencies: list
    units: int
    attempted: int
    failed: int

    @property
    def units_per_s(self) -> float:
        return self.units / self.wall_s


def run_loop(wl, seconds=None, first=0, count=None) -> Loop:
    """Closed loop from operation `first`: the next starts when one returns.

    Stops after `count` operations or once `seconds` have passed.
    """
    latencies = []
    units = attempted = failed = 0
    start = perf_counter()
    while True:
        index = first + attempted
        try:
            op = wl.run_once(index)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            if not failed:
                traceback.print_exc()
            wl.failures.append(f"op {index}: {exc!r}")
            failed += 1
        else:
            latencies.append(op.seconds)
            units += op.units
            failed += not op.ok
        attempted += 1
        if attempted == count or (seconds is not None and perf_counter() - start >= seconds):
            break
    return Loop(perf_counter() - start, latencies, units, attempted, failed)


def merge(loops: list) -> Loop:
    return Loop(sum(x.wall_s for x in loops), [t for x in loops for t in x.latencies],
                sum(x.units for x in loops), sum(x.attempted for x in loops),
                sum(x.failed for x in loops))


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload_cls, seed, seconds, tmp):
    setup = measure_setup(workload_cls.name, seed)
    wl = workload_cls(seed, tmp, program_api())
    loop = run_loop(wl, seconds)
    outcome = wl.finish()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (loop.units_per_s, "1/s"),
        "call_ms_p50": (statistics.median(loop.latencies) * 1e3, "ms"),
        "call_ms_p90": (p90(loop.latencies) * 1e3, "ms"),
        "err_over_eps": (outcome.err_over_eps, "ratio"),
    }
    details = dict(outcome.details, setup_samples_s=setup, calls=len(loop.latencies),
                   units=loop.units, wall_s=loop.wall_s)
    return metrics, [(loop, outcome)], wl.failures, details


def run_traced(workload_cls, seed, seconds, tmp):
    """Untraced and traced blocks alternate over the same inputs for `seconds`.

    Alternating makes drift in the machine's speed hit both sides alike, so
    their difference is the tracing overhead.
    """
    from tracing import OBSERVERS, ROOT_SPAN, Tracer, layer_metrics
    tracer = Tracer()

    def traced_block(work):
        tracer.patch_internal(OBSERVERS)
        try:
            root = tracer.open(ROOT_SPAN)
            try:
                return work()
            finally:
                tracer.close(root)
        finally:
            tracer.unpatch()

    plain = workload_cls(seed, tmp, program_api())
    traced = traced_block(lambda: workload_cls(seed, tmp, program_api(tracer)))
    plain_blocks, traced_blocks = [], []
    first = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        plain_blocks.append(run_loop(plain, first=first, count=workload_cls.block))
        traced_blocks.append(traced_block(
            lambda: run_loop(traced, first=first, count=workload_cls.block)))
        first += workload_cls.block
    plain_loop, traced_loop = merge(plain_blocks), merge(traced_blocks)
    plain_outcome, traced_outcome = plain.finish(), traced.finish()

    overhead = traced_loop.wall_s / plain_loop.wall_s - 1.0
    metrics, summary = layer_metrics(tracer, overhead)
    details = {"spans": summary["spans"], "span_count": summary["span_count"],
               "absent": sorted(tracer.absent), "blocks": len(traced_blocks),
               "untraced_units_per_s": plain_loop.units_per_s,
               "traced_units_per_s": traced_loop.units_per_s,
               "untraced": plain_outcome.details, "traced": traced_outcome.details}
    runs = [(plain_loop, plain_outcome), (traced_loop, traced_outcome)]
    return metrics, runs, plain.failures + traced.failures, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "verify", "sampled"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_program()
    import numpy
    import workloads

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, runs, failures, details = run(workloads.WORKLOADS[args.workload],
                                               args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(loop.attempted + outcome.extra_attempted for loop, outcome in runs)
    failed = sum(loop.failed + outcome.extra_failed for loop, outcome in runs)
    correct = failed == 0 and not failures
    info = {
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "load": "closed loop, 1 caller, 1 process, 1 thread",
        },
        "details": details,
        "failures": failures[:20],
    }
    print(json.dumps(info))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
