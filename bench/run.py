"""Outside-in benchmark of alphacentral's verify, scale and certify paths.

    python3 bench/run.py --workload {sweep,scale,certify,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ../src relative to this file
and nowhere else. One process, one caller, closed loop: the next operation
starts when the previous one returns. A run makes the workload's seeded list
of operations and repeats whole passes over it for about S seconds (at least
two passes), then checks the results independently (see workloads.py) and
probes the near-1 alpha band of ROADMAP item 1, untimed.

Operations are timed in CPU time of this process (BLAS runs one thread), and
each operation counts at its fastest pass: on a shared host, other tenants'
load comes and goes within milliseconds and only ever adds time. Their load
also slows the CPU for tens of seconds at a time, so a fixed calibration loop
that runs no alphacentral code is timed between operations, and the gated
timings are scaled to a CPU on which that loop takes CAL_NOMINAL_S.

--trace 0 reports the end-to-end metrics; --trace 1 runs passes for S/2
seconds with every alphacentral call wrapped in a span, then the same passes
untraced to measure the tracing overhead, and reports per-layer self times
and counts. Both print readable lines first and one JSON object as the last
line. The full record (run metadata, details, spans) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 12
CAL_SHARE = 0.05       # share of the run's CPU time given to the calibration loop
CAL_NOMINAL_S = 1e-4   # the loop's fastest CPU time on the nominal CPU
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import alphacentral as ac; "
              "ac.eigenvalues_sym(ac.a_alpha_matrix(ac.generate('petersen'), 0.5))")
WORKLOAD_NAMES = ("sweep", "scale", "certify")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
clock = time.perf_counter
cpu_clock = time.process_time
# numpy is imported inside functions: main() must set the BLAS thread count
# before the first import.

# self time in ms per run, by span
LAYER_MS = ("exactalg.charpoly_int", "exactalg.charpoly_exact",
            "spectra.a_alpha_matrix.exact", "verify.a_cospectral_exact",
            "graphs.nonisomorphism_witness", "closedform.charpoly", "closedform.roots",
            "construct.central_graph", "construct.central_vertex_join",
            "graphs.adjacency_matrix", "spectra.a_alpha_matrix.float",
            "spectra.eigenvalues_sym", "linalg.eig", "spectra.coronal_eval",
            "verify.coronal_equal_check", "verify.sweep",
            "verify.cospectral_cvjoin_family", "verify.formula_discrepancy_notes")
LAYER_CALLS = ("exactalg.charpoly_int", "closedform.solve_poly_real",
               "spectra.eigenvalues_sym", "linalg.eig", "spectra.coronal_eval")
NEAR1_METRIC = "closedform.near1_band.failed_cases"
# sweep call on central(C_n) and C_n vjoin C_n at small orders, to find where
# the closed form starts to beat build-then-eigensolve
PROBE_CYCLES = {"central": (4, 8, 16, 32, 64), "join": (3, 5, 10, 20, 40)}
PROBE_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement

class Window:
    """Outcome of whole passes over a list of operations."""

    def __init__(self, n_ops):
        self.first = [None] * n_ops   # result (or exception) of each op's first run
        self.executed = []            # (op index, program says pass) per execution
        self.latency = []             # wall seconds per execution
        self.cpu = []                 # CPU seconds per execution
        self.pass_s = []              # seconds per pass
        self.wall = 0.0


def run_passes(ops, seconds=None, passes=None, before_op=None, after_op=None):
    """Whole passes over ops: `passes` of them, or as many as bring the run
    closest to `seconds` (at least two, so every operation has a repeat)."""
    w = Window(len(ops))
    start = clock()
    while True:
        t_pass = clock()
        for i, op in enumerate(ops):
            if before_op is not None:
                before_op(i)
            t, c = clock(), cpu_clock()
            try:
                res = op.call()
            except Exception as exc:  # an operation that raises counts as failed
                res = exc
            w.cpu.append(cpu_clock() - c)
            w.latency.append(clock() - t)
            if after_op is not None:
                after_op(w.cpu[-1])
            w.executed.append((i, not isinstance(res, Exception) and op.passed(res)))
            if w.first[i] is None:
                w.first[i] = res
        w.pass_s.append(clock() - t_pass)
        w.wall = clock() - start
        if passes is not None:
            if len(w.pass_s) == passes:
                return w
        elif len(w.pass_s) >= 2 and w.wall + statistics.median(w.pass_s) / 2 >= seconds:
            return w


class Calibration:
    """How fast the CPU ran during the timed passes. After each operation the
    run owes CAL_SHARE of its CPU time to a fixed loop of dict, str and small
    numpy work that calls no alphacentral code, so the loop is sampled evenly
    over the run. Its fastest time R tracks the host's load the way the
    fastest times of interpreter-bound operations do, and those of
    numpy-bound ones in part; scaling a CPU time by CAL_NOMINAL_S / R gives
    the time on a CPU where the loop takes CAL_NOMINAL_S."""

    def __init__(self):
        import numpy as np
        m = np.random.default_rng(0).standard_normal((12, 12))
        self.eigvalsh, self.matrix = np.linalg.eigvalsh, m + m.T
        self.samples = []
        self.owed = 0.0

    def loop(self):
        counts, digits = {}, 0
        for i in range(400):
            counts[i % 31] = counts.get(i % 31, 0) + i * i
            digits += len(str(i))
        self.eigvalsh(self.matrix)
        return digits

    def after_op(self, op_cpu_s):
        self.owed += CAL_SHARE * op_cpu_s
        while self.owed > 0:
            c = cpu_clock()
            self.loop()
            self.samples.append(cpu_clock() - c)
            self.owed -= self.samples[-1]

    def factor(self):
        return CAL_NOMINAL_S / min(self.samples)


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class SetupTimer:
    """CPU time (user + system) and wall time of a fresh interpreter that
    imports alphacentral and solves one eigenproblem. The first start only
    compiles bytecode; the measured starts are spread evenly over the timed
    run, between operations, so that their median does not hang on how busy
    the host was during one second of it."""

    def __init__(self, seconds):
        self.cpu_s, self.wall_s = [], []
        self.interval = seconds / SETUP_RUNS
        self.start()
        self.next_at = clock()

    def start(self):
        t, c = clock(), children_cpu()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        return children_cpu() - c, clock() - t

    def sample(self):
        cpu_s, wall_s = self.start()
        self.cpu_s.append(cpu_s)
        self.wall_s.append(wall_s)

    def maybe_sample(self, _op_index=None):
        if len(self.cpu_s) < SETUP_RUNS and clock() >= self.next_at:
            self.sample()
            self.next_at += self.interval

    def finish(self):
        while len(self.cpu_s) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.cpu_s), statistics.median(self.wall_s)


def tail(latency):
    """(percentile, ms) for the highest listed percentile with at least ten
    samples beyond it, or None with fewer than 20 samples."""
    import numpy as np
    n = len(latency)
    if n < 20:
        return None
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(latency, pct)) * 1e3
    return None


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # a raising case counts as failed
        return exc


def failures(window, rejected):
    """Per execution: failed by the program's own verdict or by a check."""
    return [not ok or i in rejected for i, ok in window.executed]


def run_metadata(args):
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphacentral").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, ops, check, rng):
    setup = SetupTimer(args.seconds)
    cal = Calibration()
    w = run_passes(ops, seconds=args.seconds, before_op=setup.maybe_sample,
                   after_op=cal.after_op)
    setup_s, setup_wall_s = setup.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = check(ops, w.first, rng)
    attempted = len(w.executed)
    failed = sum(failures(w, checked.rejected))
    n = len(ops)
    best = [min(w.cpu[i::n]) for i in range(n)]
    best_wall = [min(w.latency[i::n]) for i in range(n)]
    scale = cal.factor()
    metrics = {
        "ops_per_s_cal": (n / (sum(best) * scale), "1/s"),
        "op_p50_ms_cal": (statistics.median(best) * scale * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    t = tail(w.latency)
    detail = {"ops_per_pass": n, "passes": len(w.pass_s), "wall_s": w.wall,
              "calibration_s": min(cal.samples), "calibration_samples": len(cal.samples),
              "ops_per_cpu_s": n / sum(best),
              "op_cpu_p50_ms": statistics.median(best) * 1e3,
              "ops_per_s": n / sum(best_wall),
              "op_p50_ms": statistics.median(best_wall) * 1e3,
              "wall_ops_per_s": attempted / w.wall,
              "all_samples_p50_ms": statistics.median(w.latency) * 1e3,
              "samples": attempted, "fail_rate": failed / attempted,
              "op_tail_ms": None if t is None else {"percentile": t[0], "value": t[1]},
              "setup_wall_s": setup_wall_s, "setup_s_all": setup.cpu_s}
    lines = [f"{args.workload}: {name} = {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"{args.workload}: fail_rate = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted})")
    lines.append(f"{args.workload}: op_tail_ms = " + (
        "omitted (fewer than 20 operations)" if t is None
        else f"{t[1]:.6g} ms wall at p{t[0]:g} of {attempted} samples"))
    lines.append(f"{args.workload}: the gated timings take each of the {n} operations at "
                 f"its fastest of {len(w.pass_s)} passes, in CPU time scaled by "
                 f"{scale:.4g}: the calibration loop's fastest of {len(cal.samples)} "
                 f"runs took {min(cal.samples) * 1e3:.4g} ms against "
                 f"{CAL_NOMINAL_S * 1e3:g} ms nominal. Unscaled, ops_per_cpu_s = "
                 f"{detail['ops_per_cpu_s']:.6g} 1/s and op_cpu_p50_ms = "
                 f"{detail['op_cpu_p50_ms']:.6g} ms. In wall time, ops_per_s = "
                 f"{detail['ops_per_s']:.6g} 1/s and op_p50_ms = "
                 f"{detail['op_p50_ms']:.6g} ms; over all {attempted} samples "
                 f"({w.wall:.2f} s) the rate is {attempted / w.wall:.6g} 1/s and the median "
                 f"{detail['all_samples_p50_ms']:.6g} ms. Set-up wall time "
                 f"{setup_wall_s:.6g} s")
    return metrics, checked, attempted, failed, detail, lines, None


def traced(args, ops, check, rng):
    import alphacentral as ac
    from tracer import Tracer
    from workloads import expect_counts, sweep_op

    tr = Tracer()
    tr.install()
    unpatched = tr.unpatched_bindings()
    roots = []
    t0 = clock()
    ac.formula_discrepancy_notes()
    w = run_passes(ops, seconds=args.seconds / 2,
                   before_op=lambda i: roots.append(len(tr.name)))
    wall = clock() - t0
    tr.uninstall()

    t0 = clock()
    ac.formula_discrepancy_notes()
    run_passes(ops, passes=len(w.pass_s))
    untraced_wall = clock() - t0

    self_s, incl_s, calls = tr.layers()
    curve = {}
    if args.workload == "scale":
        curve = scale_curve(tr, roots, ops)
        probe = Tracer()
        probe.install()
        probe_ops = [sweep_op(e, 0.5) for kind, ns in PROBE_CYCLES.items() for n in ns
                     for e in [ac.generate("cycle", [n]) if kind == "central" else
                               (ac.generate("cycle", [n]), ac.generate("cycle", [n]))]]
        probe_roots = []
        run_passes(probe_ops, passes=PROBE_REPEATS,
                   before_op=lambda i: probe_roots.append(len(probe.name)))
        probe.uninstall()
        for kind, pts in scale_curve(probe, probe_roots, probe_ops).items():
            curve.setdefault(kind, {}).update(pts)

    checked = check(ops, w.first, rng)
    attempted = len(w.executed)
    failed = sum(failures(w, checked.rejected))

    problems = [f"binding left untraced: {b}" for b in unpatched]
    for span, rel, want in expect_counts(ops, len(w.pass_s)):
        got = calls[span]
        if not (got == want if rel == "==" else got >= want):
            problems.append(f"self-check: {span}.calls = {got}, inputs imply {rel} {want}")
    checked.problems.extend(problems)

    metrics = {f"{name}.ms": (self_s[name] * 1e3, "ms") for name in LAYER_MS}
    metrics["closedform.spectrum.ms"] = (incl_s["closedform.spectrum"] * 1e3, "ms")
    metrics.update({f"{name}.calls": (calls[name], "count") for name in LAYER_CALLS})
    metrics["exactalg.charpoly_int.max_order"] = (tr.stats["charpoly_int.max_order"], "count")
    metrics["exactalg.charpoly_int.max_entry_bits"] = (
        tr.stats["charpoly_int.max_entry_bits"], "bits")
    metrics["construct.edges_built"] = (tr.stats["edges_built"], "count")
    metrics["linalg.eig.calls_per_op"] = (calls["linalg.eig"] / attempted, "calls/op")
    accounted = sum(self_s.values())
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unaccounted_s"] = (wall - accounted, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    for kind in PROBE_CYCLES:
        metrics[f"scale_curve.{kind}.crossover_order"] = (
            crossover(curve.get(kind, {})), "vertices")

    detail = {"passes": len(w.pass_s), "ops_per_pass": len(ops), "spans": len(tr.name),
              "untraced_wall_s": untraced_wall, "missing_targets": tr.missing,
              "self_ms": {k: v * 1e3 for k, v in sorted(self_s.items())},
              "calls": dict(sorted(calls.items())),
              "scale_curve_ms": {kind: {str(o): v for o, v in sorted(pts.items())}
                                 for kind, pts in curve.items()}}
    lines = [f"{args.workload}: {name} = {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"{args.workload}: layer self times sum to {accounted:.4f} s of "
                 f"{wall:.4f} s traced wall; unaccounted {wall - accounted:.4f} s")
    for kind, pts in sorted(curve.items()):
        for order, (closed_ms, built_ms) in sorted(pts.items()):
            lines.append(f"{args.workload}: scale curve {kind} order {order}: "
                         f"closed form {closed_ms:.3f} ms, build+eigensolve {built_ms:.3f} ms")
    return metrics, checked, attempted, failed, detail, lines, tr


def scale_curve(tr, roots, ops):
    """{kind: {order: (median closed-form ms, median build+eigensolve ms)}}."""
    split = tr.closed_vs_built()
    samples = {}
    for k, root in enumerate(roots):
        op = ops[k % len(ops)]
        if op.kind in ("central", "join"):
            samples.setdefault(op.kind, {}).setdefault(op.order, []).append(split[root])
    return {kind: {order: (statistics.median(c for c, _ in v) * 1e3,
                           statistics.median(b for _, b in v) * 1e3)
                   for order, v in by_order.items()}
            for kind, by_order in samples.items()}


def crossover(points):
    """Smallest order from which the closed form is faster at every larger
    measured order; 0 when it is not faster at the largest, or not measured."""
    best = 0
    for order in sorted(points, reverse=True):
        closed_ms, built_ms = points[order]
        if closed_ms >= built_ms:
            break
        best = order
    return best


# ---------------------------------------------------------------------------

def run_all(args):
    """Every workload in turn, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    package = SRC / "alphacentral"
    if not (package / "__init__.py").is_file():
        print(f"error: alphacentral sources not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alphacentral as ac
    if Path(ac.__file__).resolve().parent != package.resolve():
        print(f"error: imported alphacentral from {ac.__file__}, not {package}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, check_near1, near1_probe

    make, check = WORKLOADS[args.workload]
    ac.eigenvalues_sym(ac.a_alpha_matrix(ac.generate("petersen"), 0.5))
    ops = make(random.Random(args.seed))
    check_rng = random.Random(f"check-{args.seed}")
    run = traced if args.trace else end_to_end
    metrics, checked, attempted, failed, detail, lines, tr = run(args, ops, check, check_rng)

    # ROADMAP item 1, kept in view outside the timed operations
    probe = near1_probe(random.Random(f"near1-{args.seed}"))
    probed = check_near1(probe, [_call(op) for op in probe])
    checked.problems.extend(f"near-1 probe {p}" for p in probed.problems)
    detail["near1_band_failed_cases"] = len(probed.rejected)
    lines.append(f"{args.workload}: known defect (ROADMAP item 1): {len(probed.rejected)} of "
                 f"{len(probe)} cases fail in the untimed near-1 alpha band probe")
    if args.trace:
        metrics[NEAR1_METRIC] = (len(probed.rejected), "count")

    correct = not checked.problems
    for line in lines:
        print(line)
    for note in checked.notes:
        print(f"{args.workload}: check: {note}")
    for problem in checked.problems:
        print(f"{args.workload}: PROBLEM: {problem}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": run_metadata(args), "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": {k: v for k, (v, _) in metrics.items()},
              "detail": detail, "checks": checked.notes, "problems": checked.problems}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tr is not None:
        tr.save(stem.with_suffix(".spans.json.gz"))
    print(f"{args.workload}: run record {stem.with_suffix('.json').relative_to(ROOT)}; "
          f"meta {json.dumps(record['meta'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
