#!/usr/bin/env python3
"""Benchmark of the whole EAR pipeline; see README.md beside this file.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 16 --trace 0

Run from the repository root.  Prints every metric with its unit, then one
JSON object as the last line.  Exits 1 if a correctness check fails and 2 if
the benchmark cannot run at all.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy is imported: the
# load is one process, one question at a time.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("planted", "zipf-rd", "ingest")
SETUP_REPEATS = 3
GENERATE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measuring phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add a traced pass and report per-layer metrics")
    return p.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy
    from expandrank import kernels

    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba,
        "kernel": "numba" if kernels.USING_NUMBA else "numpy fallback",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": seed,
    }


def _percentile(values, q):
    import numpy

    if not values:
        raise ValueError("no completed questions to take a percentile of")
    return float(numpy.percentile(values, q))


def _end_to_end(setup_s, passes, ledger, peak_rss_mb):
    first = passes[0]
    pooled = {v: [ms for p in passes for ms in p.q_ms[v]] for v in first.q_ms}
    m = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "make_train_s": (statistics.median(p.make_train_s for p in passes),
                         "s"),
        "train_s": (statistics.median(p.train_s for p in passes), "s"),
        "experiment_s": (statistics.median(p.experiment_s for p in passes),
                         "s"),
    }
    for v in ("bm25", "ear_ri", "ear_rd", "ear_rd_pr"):
        m[f"q_ms_p50.{v}"] = (_percentile(pooled[v], 50), "ms")
    for v in ("ear_ri", "ear_rd", "ear_rd_pr"):
        m[f"q_ms_p95.{v}"] = (_percentile(pooled[v], 95), "ms")
    m["acc_top5.ear_rd"] = (first.accuracy["ear_rd"][5], "frac")
    m["acc_top5.ear_ri"] = (first.accuracy["ear_ri"][5], "frac")
    m["acc_top20.ear_rd"] = (first.accuracy["ear_rd"][20], "frac")
    m["ok_frac"] = ((ledger.attempted - ledger.failed) / ledger.attempted,
                    "frac")
    return m, {v: len(s) for v, s in pooled.items()}


def _run(args, run_dir: Path) -> tuple[dict, bool]:
    import checks
    import experiment
    import workloads
    from expandrank import corpus, expansion

    env = _environment(args.seed)
    inputs = run_dir / "inputs"
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), args.workload,
         str(args.seed), str(inputs)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
        timeout=GENERATE_TIMEOUT_S)
    paths = workloads.input_paths(inputs)
    index_path = run_dir / "idx.bin"

    ledger = experiment.Ledger()
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        ledger.attempt()
        store = idx = None  # peak memory is one set-up's, not two
        seconds, raw, store, idx = experiment.setup(paths["corpus"],
                                                    index_path)
        setup_s.append(seconds)
        raw_setup_s.append(raw)
    index_bytes = index_path.stat().st_size

    # Passes repeat while one more, as long as the last, fits in --seconds.
    # Pass lengths are scaled (see speed.py), so the count does not depend on
    # how fast the machine happens to be.
    passes = []
    while True:
        passes.append(experiment.run_pass(store, idx, paths, run_dir, ledger))
        measured = sum(p.experiment_s for p in passes)
        if measured + passes[-1].experiment_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes[0]

    traced = layer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            _, _, t_store, t_idx = experiment.setup(
                paths["corpus"], index_path, inner_probes=False)
            traced = experiment.run_pass(t_store, t_idx, paths, run_dir,
                                         ledger, inner_probes=False)
        finally:
            tracer.uninstall()
        overhead = traced.experiment_s / statistics.median(
            p.experiment_s for p in passes) - 1.0
        tracer.save(WORK / f"trace-{args.workload}-s{args.seed}.npz")
        layer = tracing.layer_metrics(tracer, index_bytes, overhead)

    # -- checks, untimed ------------------------------------------------------
    test_qs = corpus.load_questions(paths["test"])
    test_cands = expansion.load_expansions(paths["test_expansions"])
    problems = []

    def check(what, fn, *fn_args):
        try:
            problems.extend(f"{what}: {p}" for p in fn(*fn_args))
        except Exception as exc:  # a check that cannot run has failed
            problems.append(f"{what}: raised {type(exc).__name__}: {exc}")

    check("ranked lists", checks.ranked_lists, first.runs)
    check("brute-force BM25", checks.brute_agreement, idx, store, test_qs,
          test_cands)
    if args.workload == "planted":
        check("planted orderings", checks.planted_orderings, first.runs,
              first.accuracy, test_qs, store)
    for i, p in enumerate(passes[1:] + ([traced] if traced else []), 2):
        if p.digests != first.digests:
            problems.append(f"pass {i}: run files differ from pass 1")

    e2e, samples = _end_to_end(setup_s, passes, ledger, peak_rss_mb)
    report = {
        "workload": args.workload,
        "environment": env,
        "passes": len(passes),
        "test_questions": len(test_qs),
        "timed_questions": samples,
        "raw_wall_clock": {
            "setup_s": statistics.median(raw_setup_s),
            "experiment_s": statistics.median(p.raw_experiment_s
                                              for p in passes),
        },
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()},
        "per_layer": None if layer is None else {
            k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "untrained_stand_ins": first.untrained,
        "run_sha256": first.digests,
        "problems": problems,
    }
    return report, not problems


def _print_report(report: dict) -> None:
    env = report["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"numba importable: {'yes' if env['numba_importable'] else 'no'}, "
          f"kernel: {env['kernel']}, nproc {env['nproc']}, "
          + ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    print(f"workload {report['workload']} seed {env['seed']}: "
          f"{report['passes']} pass(es), {report['test_questions']} test "
          f"questions, timed per variant: {report['timed_questions']}")
    for section in ("end_to_end", "per_layer"):
        if report[section]:
            print(f"{section}:")
            for name, mv in report[section].items():
                print(f"  {name} = {mv['value']:.6g} {mv['unit']}")
    frac = report["failed"] / report["attempted"]
    print(f"failed_frac = {frac:.6g} ({report['failed']} failed of "
          f"{report['attempted']} attempted)")
    for reason, count in report["failures"].items():
        print(f"  failed x{count}: {reason}")
    if report["untrained_stand_ins"]:
        print("  timed with an untrained stand-in model: "
              + ", ".join(report["untrained_stand_ins"]))
    for variant, digest in report["run_sha256"].items():
        print(f"run sha256 {variant}: {digest}")
    if report["problems"]:
        print(f"checks: FAIL ({len(report['problems'])} problems)")
        for p in report["problems"][:20]:
            print(f"  {p}")
    else:
        print("checks: PASS")


def main(argv=None) -> int:
    args = _parse(argv)
    for needed in (SRC / "expandrank" / "__init__.py", TESTS / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        report, correct = _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    _print_report(report)
    section = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": section}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
