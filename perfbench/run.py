"""fdr2d benchmark: seeded workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-binomial --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Load model: a closed loop with one client. One op runs at a time in
this process, and BLAS/OpenMP threads are capped at the CPU count. An
op is one ``analyze`` call through ``fdr2d.cli.main`` or one
``simulate`` replication (see ``workloads.py``).

A run makes its inputs from ``--seed`` before timing starts, then runs
one untimed warm-up op on a seed pinned in ``goldens.json`` (the run's
own seed when it is pinned) and checks it against the pin. It then runs
ops until ``--seconds`` have passed, checking every one.

``--trace 0`` prints the end-to-end metrics: ``op_norm_s``, the median
op wall time; ``setup_s``, the median time from spawning a fresh
interpreter until ``fdr2d.cli`` is imported; both scaled to a fixed host
speed (see REF_S); and ``peak_rss_mb``. The raw medians (``analyze_s``
on analyze workloads, ``sim_rep_s`` on simulate-rv, and the raw set-up
time) are printed beside them and kept in the record.
``--trace 1`` alternates untraced and traced ops and prints the
per-layer metrics of ``spans.py`` (medians over traced ops), with the
tracing overhead and the share of op time no layer span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(provenance, every op time, the tail percentile, spans when traced)
goes to ``.perfbench_out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SPAWNS = 7
# On a shared host the speed of this process drifts, by up to 2x within
# seconds and by a third between minutes, so raw times of two runs of
# the same code differ by more than a useful bound. Untraced runs
# therefore interleave a fixed reference work with what they time (one
# before each set-up spawn, and one for every REF_GAP_S seconds of op
# time, run between ops) and report a median time scaled by
# REF_S / (median reference time), which divides the host's speed out.
# The reference takes 0.09-0.13 s on a 2-vCPU Xeon VM, so with
# REF_S = 0.1 scaled values read as seconds on that machine.
REF_GAP_S = 0.5
REF_S = 0.1
REF_LOOP = 400_000
REF_MATMULS = 100
MIN_OPS = 3  # attempts per timed list, so a slow machine still gets a median
TAIL_BEYOND = 10


def bootstrap():
    """Set every BLAS/OpenMP thread count to the CPU count, whatever the
    caller's environment says, and put this checkout's ``src`` first on
    the path.

    Runs before numpy is imported, because BLAS reads the counts when it
    loads. Exits with code 2 when the checkout has no fdr2d sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not (SRC / "fdr2d" / "__init__.py").is_file():
        sys.exit(f"error: no fdr2d sources under {SRC}")
    sys.path.insert(0, str(SRC))


def load_goldens():
    with open(HERE / "goldens.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def provenance(workloads, seed, golden_seed):
    import numpy
    import scipy

    from fdr2d import _accel

    return {
        "seed": seed,
        "golden_seed": golden_seed,
        "lane": "numba" if _accel.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workloads": {name: w.sizes() for name, w in workloads.WORKLOADS.items()},
    }


def measure_setup(spawns, ref_matrix):
    """Seconds from spawning an interpreter until ``fdr2d.cli`` is imported,
    and the reference times taken before each spawn and after the last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import fdr2d.cli; print('ready', flush=True)"
    times, refs = [], []
    for _ in range(spawns):
        refs.append(reference_s(ref_matrix))
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
        times.append(elapsed)
    refs.append(reference_s(ref_matrix))
    return times, refs


def reference_s(matrix):
    """Seconds for fixed work that no change to fdr2d touches.

    A pure-Python loop and BLAS matrix products on ``matrix``, so that
    both the interpreter-bound and the BLAS-bound parts of an op have a
    counterpart whose slow-down under host load can be divided out.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(REF_LOOP):
        acc += k * k % 7
    for _ in range(REF_MATMULS):
        matrix @ matrix
    return time.perf_counter() - start


def scaled(times, refs):
    """Median of ``times`` at the host speed where the reference takes REF_S."""
    return statistics.median(times) * REF_S / statistics.median(refs)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))  # nearest rank, ceil(pct * n / 100)
    return {
        "value": sorted(times)[rank - 1],
        "percentile": pct,
        "beyond": n - rank,
        "samples": n,
    }


class Ops:
    """Attempted and failed op counts, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, session, i, tracer=None):
        """Run and check op ``i``; return its seconds, also when it fails.

        An op that raises is timed up to the raise, so every attempt adds
        a time and the timed loop ends even when every op fails.
        """
        gc.collect()
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = session.run(i)
                elapsed = time.perf_counter() - start
            else:
                elapsed, out = tracer.run(i, session.run, i)
            problems = session.check(i, out)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            traceback.print_exc()
            if elapsed is None:
                elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems][:5]
            print(f"op {i} failed: {problems}", file=sys.stderr)
        return elapsed


def run_workload(args):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pins = load_goldens()[workload.name]
    golden_seed = args.seed if str(args.seed) in pins else min(int(s) for s in pins)
    record = {
        "workload": workload.name,
        "kind": workload.kind,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(workloads, args.seed, golden_seed),
    }
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_DIR)
    ops = Ops()
    tracer = spans.Tracer() if args.trace else None
    plain, traced, refs = [], [], []
    ref_matrix = None
    if not args.trace:
        import numpy as np

        ref_matrix = np.random.default_rng(0).standard_normal((300, 300))
        setup_times, setup_refs = measure_setup(SETUP_SPAWNS, ref_matrix)
    try:
        session = workload.setup(args.seed, os.path.join(workdir, "run"), pins.get(str(args.seed)))
        if golden_seed == args.seed:
            warm = session
        else:
            warm = workload.setup(
                golden_seed, os.path.join(workdir, "golden"), pins[str(golden_seed)]
            )
        ops.run(warm, 0)
        start = time.perf_counter()
        i = 0
        since_ref = REF_GAP_S
        while (
            time.perf_counter() - start < args.seconds
            or len(plain) < MIN_OPS
            or (tracer is not None and len(traced) < MIN_OPS)
        ):
            while ref_matrix is not None and since_ref >= REF_GAP_S:
                refs.append(reference_s(ref_matrix))
                since_ref -= REF_GAP_S
            use_tracer = tracer is not None and i % 2 == 1
            elapsed = ops.run(session, i, tracer if use_tracer else None)
            (traced if use_tracer else plain).append(elapsed)
            since_ref += elapsed
            i += 1
        if ref_matrix is not None:
            refs.append(reference_s(ref_matrix))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        attempted=ops.attempted,
        failed=ops.failed,
        fail_frac=ops.failed / ops.attempted,
        problems=ops.problems,
        op_times=plain,
        tail=tail(plain),
    )
    if args.trace:
        per_op = [spans.layer_metrics(rec) for rec in tracer.per_op().values()]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["trace.hooks_missing"] = len(tracer.missing)
        record.update(traced_op_times=traced, missing_hooks=sorted(tracer.missing),
                      spans=tracer.spans)
    else:
        metrics = {
            "op_norm_s": scaled(plain, refs),
            "setup_s": scaled(setup_times, setup_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(
            op_s=statistics.median(plain), ref_times=refs,
            setup_raw_s=statistics.median(setup_times), setup_times=setup_times,
            setup_ref_times=setup_refs,
        )
    record["metrics"] = metrics
    return record


def summary_lines(record, units):
    """Human-readable metrics; the raw op time is named analyze_s or sim_rep_s."""
    prov = record["provenance"]
    lines = [
        f"# {record['workload']} seed={prov['seed']} golden_seed={prov['golden_seed']} "
        f"lane={prov['lane']} nproc={prov['nproc']} "
        f"threads={prov['thread_caps']['OPENBLAS_NUM_THREADS']} python={prov['python']} "
        f"numpy={prov['numpy']} scipy={prov['scipy']}"
    ]
    m = record["metrics"]
    n_ops = len(record["op_times"])
    if record["trace"]:
        for name in units:
            lines.append(f"{name:28s} {m[name]:.6g} {units[name]}")
        if record["missing_hooks"]:
            lines.append(f"missing hooks: {', '.join(record['missing_hooks'])}")
    else:
        op_name = "sim_rep_s" if record["kind"] == "simulate" else "analyze_s"
        lines.append(f"{op_name:16s} {record['op_s']:.6g} s   (median of {n_ops} ops)")
        lines.append(
            f"{'op_norm_s':16s} {m['op_norm_s']:.6g} s   ({op_name} * {REF_S} / median of "
            f"{len(record['ref_times'])} reference times, "
            f"{statistics.median(record['ref_times']):.6g} s)"
        )
        t = record["tail"]
        if t is not None:
            lines.append(
                f"{op_name + '_tail':16s} {t['value']:.6g} s   "
                f"(p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond)"
            )
        lines.append(
            f"{'setup_s':16s} {m['setup_s']:.6g} s   (median of {len(record['setup_times'])} "
            f"spawns, {record['setup_raw_s']:.6g} s, * {REF_S} / median of "
            f"{len(record['setup_ref_times'])} reference times, "
            f"{statistics.median(record['setup_ref_times']):.6g} s)"
        )
        lines.append(f"{'peak_rss_mb':16s} {m['peak_rss_mb']:.6g} MB")
    lines.append(
        f"{'fail_frac':16s} {record['fail_frac']:.6g} ratio "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    return lines


def result_line(record, units):
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args, names):
    """Every workload in turn, each in its own interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def main(argv=None):
    bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        run_all(args, list(workloads.WORKLOADS))
        return
    units = declared_metrics()[args.trace]
    record = run_workload(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    line = result_line(record, units)
    print("\n".join(summary_lines(record, units)))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
