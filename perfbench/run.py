"""linkfold benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload a1_verify --seed 42 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the root of
the checkout; perfbench/README.md gives the rationale and which layer
metric should move which end-to-end metric.

--trace 0 (timed run): passes run back to back in this one process, with
one BLAS thread (a closed loop). A run is a fixed number of passes, --seconds
divided by the workload's nominal pass time, so the operations it checks
depend only on --seed and --seconds, never on how fast the machine ran.
Pass 0 gives --seed to linkfold as RunConfig.rng_seed; later passes use
seeds drawn from it, so a run averages over several inputs. Set-up is timed
in SETUP_SAMPLES fresh interpreters, spread evenly between the passes.
Pass and set-up times are stated at a fixed machine speed (pass_s, setup_s),
measured by the reference in perfbench/speed.py; see there for why. Prints
the end-to-end metrics (the mean pass and the median set-up) and raw times.

--trace 1 (traced run): one untraced pass and one traced pass, both at
--seed, then the kernel micro-benchmark for the rest of --seconds. Prints
the per-layer metrics; the spans go to .perfbench_out/.

Every pass's outputs are checked by perfbench/oracles.py. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. The run
exits non-zero, printing no result, when the checkout holds no linkfold
sources. Files are written only under .perfbench_out/ in the checkout.
"""

import os

# numpy starts one BLAS thread per core unless told otherwise before import
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
# reference samples a set-up child takes right after its set-up
SETUP_REFERENCES = 25
MIN_KERNEL_S = 2.0
# deviations that make up value_err_tol, in tolerance units
VALUE_KEYS = ("image_radii", "composed_values", "slice_hessian_ratio")


def set_up():
    """Import linkfold from this checkout and warm the lazily loaded schema.

    Returns (linkfold, report schema, seconds taken). Exits non-zero when
    the checkout has no linkfold sources or another copy gets imported.
    """
    start = time.perf_counter()
    init = SRC / "linkfold" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no linkfold sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import jsonschema
    import linkfold

    if Path(linkfold.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported linkfold from {linkfold.__file__}, not {init}")
    path = SRC / "linkfold" / "schemas" / "report.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validators.validator_for(schema).check_schema(schema)
    return linkfold, schema, time.perf_counter() - start


def setup_child():
    """Print this interpreter's set-up seconds and the reference time after it."""
    seconds = set_up()[2]
    import speed

    refs = [speed.reference_seconds() for _ in range(SETUP_REFERENCES)]
    print(seconds, statistics.median(refs))


def measure_setup(count):
    """(raw, at nominal speed) set-up seconds of ``count`` fresh interpreters."""
    import speed

    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up child failed: {child.stderr.strip()}")
        seconds, ref = (float(x) for x in child.stdout.split()[-2:])
        samples.append((seconds, speed.at_nominal_speed(seconds, [ref])))
    return samples


def program_seeds(seed):
    """--seed itself, then seeds drawn from it."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def value_err_tol(ops):
    errs = [v for op in ops for k, v in op.errors.items() if k in VALUE_KEYS]
    return max(errs) if errs else None


def timed_run(lf, schema, workload, args, run_dir):
    import speed

    run_pass, check, pass_seconds = workload
    count = max(1, round(args.seconds / pass_seconds))
    seeds = program_seeds(args.seed)
    setup, passes = [], []
    for i in range(count):
        # set-ups between passes, so that their median spans the whole run
        setup += measure_setup(
            round((i + 1) * SETUP_SAMPLES / count) - round(i * SETUP_SAMPLES / count))
        program_seed = next(seeds)
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            raw = run_pass(lf, program_seed, run_dir / "pass")
            wall = time.perf_counter() - t0 - sampler.busy_s
        nominal = speed.at_nominal_speed(wall, sampler.samples)
        passes.append((program_seed, wall, nominal, check(raw, schema)))
    ops = [op for *_, pass_ops in passes for op in pass_ops]
    walls = [wall for _, wall, _, _ in passes]
    errs = [value_err_tol(pass_ops) for *_, pass_ops in passes]
    errs = [e for e in errs if e is not None]
    failed = sum(op.failed for op in ops)
    values = {
        "setup_s": statistics.median(s for _, s in setup),
        # the mean: a run's passes mix seeds whose work differs
        "pass_s": statistics.fmean(n for _, _, n, _ in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_setup = statistics.median(s for s, _ in setup)
    summary = [
        f"setup_s        {values['setup_s']:.4f} s   median of {len(setup)} set-ups "
        f"at nominal speed (raw {raw_setup:.4f} s)",
        f"pass_s         {values['pass_s']:.4f} s   mean of {len(passes)} passes "
        "at nominal speed",
        f"wall_s         {statistics.median(walls):.4f} s   median of {len(walls)} passes, raw",
        f"fail_frac      {failed / len(ops):.4f}     {failed} of {len(ops)} operations",
        f"peak_rss_mb    {values['peak_rss_mb']:.1f} MB   1 process",
        "value_err_tol  " + (
            f"{statistics.median(errs):.3e} tol   median of {len(errs)} passes"
            if errs else "n/a (no closed-form values on this workload)"),
    ]
    detail = {
        "setup_s": [{"raw": r, "nominal": n} for r, n in setup],
        "passes": [
            {"seed": s, "wall_s": w, "pass_s": n, "failed_ops": [
                {"op": op.name, "wrong": op.wrong, "reasons": op.reasons}
                for op in pass_ops if op.failed]}
            for s, w, n, pass_ops in passes
        ],
        "wall_s": statistics.median(walls),
        "fail_frac": failed / len(ops),
        "value_err_tol": statistics.median(errs) if errs else None,
    }
    return values, ops, [], summary, detail


def traced_run(lf, schema, workload, args, run_dir):
    import kernels
    import tracing

    run_pass, check, _ = workload
    seed = args.seed
    start = time.perf_counter()
    t0 = time.perf_counter()
    run_pass(lf, seed, run_dir / "pass")
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer(f"{args.workload}-seed{seed}")
    tracer.install()
    try:
        t0 = time.perf_counter()
        raw = run_pass(lf, seed, run_dir / "pass", span=tracer.span)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    ops = check(raw, schema)
    missing = tracer.missing(args.workload)
    values = tracing.layer_metrics(tracer)
    values.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    budget = max(MIN_KERNEL_S, args.seconds - (time.perf_counter() - start))
    values.update(kernels.ns_per_call(lf, seed, budget))
    problems = [f"no calls recorded for {name}" for name in missing]
    summary = [
        f"traced pass    {traced:.4f} s, untraced {untraced:.4f} s, "
        f"overhead {traced - untraced:.4f} s",
        "coverage       " + ("ok" if not missing else "; ".join(problems)),
    ]
    (run_dir / "spans.json").write_text(
        json.dumps({**tracer.dump(), "metrics": values}, indent=1), encoding="utf-8")
    return values, ops, problems, summary, {"missing": missing}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child()
        return 0

    lf, schema, _ = set_up()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = OUT / args.workload / f"seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = traced_run if args.trace else timed_run
    values, ops, problems, summary, detail = runner(
        lf, schema, workloads.WORKLOADS[args.workload], args, run_dir)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = sum(op.failed for op in ops)
    result = {
        "correct": not problems and not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result, **detail}
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in summary:
        print("  " + line)
    for op in ops:
        if op.failed:
            kind = "WRONG" if op.wrong else "FAILED"
            print(f"  {kind} {op.name}: {'; '.join(op.reasons)}")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
