"""rmcf benchmark: run one seeded workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {cli_readme,mesh_theorems,profile_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; rmcf is imported from ./src, so a tree without
it fails with exit code 2. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is the result object; configs, replay commands, the run
environment and the trace go to .perfbench_out/<workload>-seed<N>-trace<T>/.
"""

import os

# pinned before numpy loads: one BLAS thread in this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402  (perfbench/, the script's own directory)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
# rounds generated up front; a run that needs more cycles through them again
ROUNDS = 16
TAIL_BEYOND = 10
# seconds of ops between two runs of the calibration kernel (calibrate.py)
CALIBRATE_EVERY_S = 5.0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def _fresh_import_seconds(root, child_env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rmcf.cli"], cwd=root, env=child_env(root),
                   check=True)
    return time.perf_counter() - start


def setup(workload, seed, root, child_env):
    """Generate the inputs and import rmcf in a fresh interpreter, SETUP_REPEATS times.

    Each set-up is followed by the calibration kernel, whose cost is close to
    a fresh ``import rmcf.cli``. Returns the inputs, the median set-up time,
    the median set-up time at the reference speed (each set-up over the
    kernel time after it, times the kernel's reference time) and the median
    fresh import time.
    """
    totals, imports, kernels = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds = workload.generate(seed, ROUNDS)
        imports.append(_fresh_import_seconds(root, child_env))
        totals.append(time.perf_counter() - start)
        kernels.append(calibrate.kernel())
    reference_s = statistics.median(
        t / k * calibrate.REFERENCE_S for t, k in zip(totals, kernels))
    return rounds, statistics.median(totals), reference_s, statistics.median(imports)


@dataclasses.dataclass
class Loop:
    """What one closed loop measured."""

    samples: list  # (op kind, op seconds) per op
    failed: int
    wall: float  # start to end of the last op, calibration left out
    child_peak_kb: int  # peak resident set of the ops' child processes


def run_ops(rounds, first, budget, fresh, reference, log, on_op=None, calibration=None,
            whole_rounds=False):
    """Closed loop over the ops of ``rounds``, from op ``first`` on, for about ``budget`` seconds.

    The ops run in round order, so every kind comes up once per round. The
    first round always runs in full; after that a new op starts while it
    would end less than half an op past the budget. With ``whole_rounds``
    the loop stops only between rounds, and a new round starts while it
    would end less than half a round past the budget, so per-op counts are
    the same whatever the number of rounds. Every op is checked after its
    timed part. With a ``calibration``, its kernel runs before the first op,
    after every CALIBRATE_EVERY_S seconds of ops and after the last op;
    ``budget`` includes the kernel runs, ``wall`` does not.
    """
    loop = Loop([], 0, 0.0, 0)
    round_len = len(rounds[0])
    calibrating_s, since_kernel = 0.0, 0.0
    start = time.perf_counter()
    if calibration is not None:
        calibrating_s += calibration.sample()
    for op in itertools.islice(itertools.cycle([op for ops in rounds for op in ops]), first, None):
        elapsed = time.perf_counter() - start
        done = len(loop.samples)
        if done >= round_len and not (whole_rounds and done % round_len):
            step = elapsed / done * (round_len if whole_rounds else 1)
            if elapsed + 0.5 * step > budget:
                break
        if on_op is not None:
            on_op(len(log))
        gc.collect()  # no op pays for the previous op's garbage
        t0 = time.perf_counter()
        error = None
        try:
            loop.child_peak_kb = max(loop.child_peak_kb, op.run(fresh) or 0)
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            error = exc
        seconds = time.perf_counter() - t0
        if on_op is not None:
            on_op(None)
        if error is None:
            try:
                op.check(reference)
            except Exception as exc:
                error = exc
        if error is not None:
            loop.failed += 1
            print(f"perfbench: op {op.key} failed: {error!r}", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        loop.samples.append((op.kind, seconds))
        log.append({"op": op.key, "seconds": seconds, "ok": error is None, "replay": op.replay})
        since_kernel += seconds
        if calibration is not None and since_kernel >= CALIBRATE_EVERY_S:
            calibrating_s += calibration.sample()
            since_kernel = 0.0
    if calibration is not None and since_kernel > 0.0:
        calibrating_s += calibration.sample()
    loop.wall = time.perf_counter() - start - calibrating_s
    return loop


def by_kind(samples):
    """{op kind: [seconds, ...]} in the order the kinds first ran."""
    kinds = collections.defaultdict(list)
    for kind, seconds in samples:
        kinds[kind].append(seconds)
    return kinds


def op_p50(samples):
    """The median op time of each kind, averaged over the kinds.

    Kinds differ up to 10-fold in cost and a run need not end on a round
    boundary, so a median over all ops would jump between kinds as the
    number of ops of each kind that fit in the run changes.
    """
    return statistics.fmean(statistics.median(t) for t in by_kind(samples).values())


def op_tail(samples):
    """(value, percentile, samples beyond): the tail within each op kind, combined.

    Each kind gives its highest order statistic with ceil(TAIL_BEYOND / kinds)
    of its samples beyond it, so that TAIL_BEYOND samples lie beyond in all,
    or its median when it has too few samples for that. The value is the mean
    over kinds, as in ``op_p50``. Taken over all ops at once, the tail would
    jump between kinds of very different cost as the number of ops that fit
    in a run changes.
    """
    kinds = by_kind(samples)
    want = math.ceil(TAIL_BEYOND / len(kinds))
    values, percentiles, beyond = [], [], 0
    for times in kinds.values():
        times.sort()
        k = len(times)
        if k > 2 * want:
            values.append(times[k - want - 1])
            percentiles.append(100.0 * (k - want) / k)
            beyond += want
        else:
            values.append(statistics.median(times))
            percentiles.append(50.0)
            beyond += k // 2
    return statistics.fmean(values), statistics.fmean(percentiles), beyond


def end_to_end(loop, setup_s, rss_kb, factor):
    """End-to-end metrics, op times divided by the host slowness ``factor`` (calibrate.py).

    ``setup_s`` is already at the reference speed (see ``setup``).
    """
    value, pct, beyond = op_tail(loop.samples)
    ops = len(loop.samples)
    measured = {
        "op_p50_s": op_p50(loop.samples),
        "op_tail_s": value,
        "ops_per_s": (ops - loop.failed) / loop.wall,
    }
    metrics = {name: v * factor if name == "ops_per_s" else v / factor
               for name, v in measured.items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return metrics, {"host_factor": factor, "measured": measured, "op_tail_percentile": pct,
                     "op_tail_samples_beyond": beyond, "samples": ops, "timed_wall_s": loop.wall}


def per_layer(tracer, ops, import_s, overhead):
    """Per-op layer metrics from one traced phase of ``ops`` ops."""
    spans = tracer.span_totals()
    counts = tracer.counts

    def span_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    points = counts["charts.surface_mesh_points"]
    geometry_calls, geometry_s = spans.get("charts.geometry", (0, 0.0, 0.0))[:2]
    return {
        "cli.import_s": import_s,
        "cli.main_s": span_s("cli.main") / ops,
        "registry.build_chart_s": span_s("registry.build_chart") / ops,
        "translators.solve_s": span_s("translators.solve") / ops,
        "translators.nfev": counts["translators.nfev"] / ops,
        "translators.njev": counts["translators.njev"] / ops,
        "translators.steps": counts["translators.steps"] / ops,
        "translators.fd_residual_probe": counts["translators.fd_residual_probe_max"],
        "translators.export_s": span_s("translators.export") / ops,
        "translators.export_bytes": counts["translators.export_bytes"] / ops,
        "translators.load_s": span_s("translators.load") / ops,
        "charts.jet_calls": counts["charts.jet.calls"] / ops,
        "charts.jets_per_point": ratio(counts["charts.jet.calls"], points),
        "charts.positions_s": span_s("charts.positions") / ops,
        "charts.geometry_s": geometry_s / ops,
        "charts.geometry_points_per_s": ratio(geometry_calls, geometry_s),
        "charts.L_operator_calls": counts["charts.L_operator.calls"] / ops,
        "charts.L_operator_s": span_s("charts.L_operator") / ops,
        "symfun.symmatrix_builds_per_point": ratio(counts["symfun.symmatrix.calls"], points),
        "symfun.newton_transform_calls": counts["symfun.newton_transform.calls"] / ops,
        "kernels.calls": counts["kernels.calls"] / ops,
        "kernels.rows_per_call": ratio(counts["kernels.rows"], counts["kernels.calls"]),
        "kernels.s": span_s("kernels") / ops,
        "kernels.madds_computed": counts["kernels.madds_computed"] / ops,
        "regions.first_exit_s": span_s("regions.first_exit") / ops,
        "regions.growth_report_s": span_s("regions.growth_report") / ops,
        "regions.min_eigen_over_mesh_s": span_s("regions.min_eigen_over_mesh") / ops,
        "regions.bihalfspace_drive_s": span_s("regions.bihalfspace_drive") / ops,
        "regions.pocket_frac": ratio(counts["regions.pocket_hits"],
                                     counts["regions.in_pocket.calls"]),
        "maxprinciple.hypothesis_gate_s": span_s("maxprinciple.hypothesis_gate") / ops,
        "maxprinciple.drive_s": span_s("maxprinciple.drive") / ops,
        "maxprinciple.oy_sequence_s": span_s("maxprinciple.oy_sequence") / ops,
        "maxprinciple.p_bound_calls": counts["maxprinciple.p_bound.calls"] / ops,
        "identities.suite_s": span_s("identities.suite") / ops,
        "trace_overhead_frac": overhead,
    }


def with_units(values, declared, section):
    """{name: {value, unit}} in the order and with the units BENCHMARK.json declares."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        _fail(f"metrics differ from BENCHMARK.json {section}: "
              f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rmcf", "__init__.py")):
        _fail("run from the repository root: src/rmcf is missing")
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")

    out_dir = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = workloads.WORKLOADS[args.workload](root, out_dir)

    rounds, measured_setup_s, setup_s, import_s = setup(workload, args.seed, root,
                                                         workloads.child_env)
    if workload.in_process or args.trace:
        import rmcf.cli  # noqa: F401  the warm in-process import, before any timing
        from rmcf import __file__ as rmcf_file
        if not os.path.realpath(rmcf_file).startswith(os.path.realpath(root) + os.sep):
            _fail(f"rmcf was imported from {rmcf_file}, outside this tree")

    if workload.in_process or args.trace:
        for op in workload.warmup():
            try:
                op.run(False)
            except Exception as exc:  # the timed ops report any failure
                print(f"perfbench: warm-up op {op.key} raised {exc!r}", file=sys.stderr)

    log = []
    result = {"workload": args.workload, "environment": _environment(args.seed),
              "measured_setup_s": measured_setup_s, "fresh_import_s": import_s}
    if not args.trace:
        calibration = calibrate.Calibration()
        loop = run_ops(rounds, 0, args.seconds, not workload.in_process, reference, log,
                       calibration=calibration)
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
                  else loop.child_peak_kb)
        values, detail = end_to_end(loop, setup_s, rss_kb, calibration.factor())
        metrics = with_units(values, declared["end_to_end"], "end_to_end")
        result.update(detail, calibration_s=calibration.times)
        samples, failed = loop.samples, loop.failed
    else:
        # in-process both halves, so the difference is the tracing alone
        half = args.seconds / 2.0
        plain = run_ops(rounds, 0, half, False, reference, log, whole_rounds=True)
        from tracer import Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except LookupError as exc:
            _fail(str(exc))
        try:
            traced = run_ops(rounds, len(plain.samples), half, False, reference, log,
                             on_op=lambda i: setattr(tracer, "op", i), whole_rounds=True)
        finally:
            tracer.uninstall()
        samples = plain.samples + traced.samples
        failed = plain.failed + traced.failed
        traced_ops = len(traced.samples)
        overhead = op_p50(traced.samples) / op_p50(plain.samples) - 1.0
        metrics = with_units(per_layer(tracer, traced_ops, import_s, overhead),
                             declared["per_layer"], "per_layer")
        result.update({"untraced_ops": len(plain.samples), "traced_ops": traced_ops})
        tracer.write(out_dir)

    attempted = len(samples)
    result["fail_frac"] = failed / attempted
    result["metrics"] = metrics
    result["ops"] = log
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "replay.txt"), "w") as fh:
        fh.writelines(entry["replay"] + "\n" for entry in log)
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"outputs, configs and replay commands: {out_dir}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
