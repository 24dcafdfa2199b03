"""sif-lab benchmark: one workload, one process, closed loop with one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload manufactured|eps-sweep|batch-data \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's unit of work repeats, at least three times,
until the next unit would end after S seconds, with pieces of the reference
kernel of ``reference.py`` timed between units, and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` the workload is set up with the layer wrappers
of ``layertrace.py`` installed, then run untraced for about S/2 seconds, then
exactly once traced; the per-layer metrics are reported.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it stamp the
environment and give the workload's accuracy figures and trace checks.

The package is imported from ``src/`` of the checkout and nowhere else.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
REF_SHARE = 0.1     # reference-kernel time per second of work
REF_FIRST_S = 0.5   # reference-kernel time before the first unit


def _cap_threads(nproc: int) -> None:
    """One BLAS/OpenMP thread unless set, never more than nproc.

    SuperLU is sequential and its BLAS calls are small; a second thread made
    the workloads slower on a 2-core machine.  Must run before numpy is
    imported.
    """
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except Exception:  # the config layout differs across numpy releases
        return {"name": None, "version": None}


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "blas": _blas(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "seed": seed}


def _probe_setup(args) -> float:
    """Set-up seconds of a fresh interpreter, imports included."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _run_unit(unit, state, i, failures):
    """One unit of work; an exception counts as a failure."""
    t0 = time.perf_counter()
    try:
        res = unit(state, i)
    except Exception as exc:  # any error is a failed operation, not a crash
        failures.append(f"unit {i}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    failures.extend(f"unit {i}: {msg}" for msg in res.failures)
    return time.perf_counter() - t0, res


def _closed_loop(unit, state, seconds, failures, min_units=1, ref=None):
    """Repeat the unit until the next one would end after `seconds`.

    At least `min_units` units run, so that the median of a workload whose
    unit takes a third of the run still has three samples when the machine
    is slow.  With a reference kernel, its pieces run before the first unit
    and after each one, for REF_SHARE of that unit's time; gap k holds the
    piece times right before unit k.
    """
    walls, results, gaps = [], [], []
    t0 = time.perf_counter()
    if ref:
        gaps.append(ref.sample(REF_FIRST_S))
    while True:
        wall, res = _run_unit(unit, state, len(walls), failures)
        walls.append(wall)
        results.append(res)
        if ref:
            gaps.append(ref.sample(REF_SHARE * wall))
        if len(walls) >= min_units and time.perf_counter() - t0 \
                + statistics.median(walls) * (1 + (REF_SHARE if ref else 0)) > seconds:
            return walls, results, gaps


def _wall_ref(walls, gaps) -> float:
    """Median over units of wall time over the reference piece time around it.

    A unit's reference time is the mean of the median piece times of the gap
    before and the gap after it.  Pooling the two gaps' pieces instead would
    weight the faster gap, which holds more pieces.
    """
    return statistics.median(
        2.0 * wall / (statistics.median(gaps[k]) + statistics.median(gaps[k + 1]))
        for k, wall in enumerate(walls))


def _accuracy(results) -> dict:
    """Worst accuracy figure of each kind over the units that ran."""
    out = {}
    for res in results:
        if res is None:
            continue
        for key, val in res.report.items():
            if isinstance(val, (int, float)):
                out[key] = max(out.get(key, val), val)
            else:
                out.setdefault(key, val)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "sif_lab" / "__init__.py").is_file():
        print(f"error: no sif_lab package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    _cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import workloads
    from layertrace import Tracer
    from reference import Reference
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(workloads.__file__).resolve().is_relative_to(BENCH_DIR) or \
            not Path(workloads.harness.__file__).resolve().is_relative_to(SRC):
        print("error: benchmark or package imported from outside the checkout",
              file=sys.stderr)
        return 2
    setup, unit = workloads.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.active():
            state = setup(args.seed)
    else:
        state = setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    print("env " + json.dumps(environment(args.seed, nproc)), flush=True)
    failures: list[str] = []
    report: dict = {"workload": args.workload}
    if not tracer:
        walls, results, gaps = _closed_loop(unit, state, args.seconds, failures,
                                            min_units=3, ref=Reference())
        setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        report.update(_accuracy(results), wall_s=statistics.median(walls),
                      wall_s_samples=walls, setup_s_samples=setups,
                      ref_piece_s=[statistics.median(g) for g in gaps],
                      ref_pieces=sum(map(len, gaps)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(walls)
        failed = sum(1 for res in results if res is None or res.failures)
        values = {"wall_ref": _wall_ref(walls, gaps),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb,
                  "pass_frac": (attempted - failed) / attempted}
    else:
        walls, results, _ = _closed_loop(unit, state, args.seconds / 2.0, failures)
        report.update(_accuracy(results))
        before = {name: rec.calls for name, rec in tracer.layers.items()}
        with tracer.active():
            traced_wall, traced = _run_unit(unit, state, 0, failures)
        if tracer.not_restored:
            failures.append(f"wrappers not restored: {tracer.not_restored}")
        identical = (traced is not None and results[0] is not None
                     and traced.fingerprint == results[0].fingerprint)
        if not identical:
            failures.append("traced and untraced outputs differ")
        attempted = len(walls) + 1
        failed = sum(1 for res in results if res is None or res.failures) \
            + (0 if traced is not None and not traced.failures and identical else 1)
        per = traced.extractions if args.workload == "batch-data" and traced else 1
        counts = {}
        for name, (want_calls, want_distinct) in workloads.SEED_COUNTS[args.workload].items():
            rec = tracer.layers[name]
            got = ((rec.calls - before[name]) / per, len(rec.keys))
            counts[name] = {"calls": got[0], "distinct": got[1],
                            "matches_seed": got == (want_calls, want_distinct)}
        report["trace"] = {"absent": tracer.absent,
                           "identical_to_untraced": identical,
                           "counts_per_unit": counts}
        values = tracer.metrics()
        values["trace_overhead_s"] = traced_wall - statistics.median(walls)

    names = spec["per_layer"] if tracer else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in names}
    if tracer:
        # Layers that some workload never reaches read 0 there, so they are
        # reported here rather than as metrics.
        report["other_layer_values"] = {k: v for k, v in values.items()
                                        if k not in metrics}
    if failures:
        report["failures"] = failures[:20]
    print("report " + json.dumps(report, default=str), flush=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
