"""End-to-end and per-layer benchmark of the relaxround command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/` and nowhere else. Every command runs in a fresh process
(bench/child.py), one at a time. The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
--smoke runs every workload at a reduced size, with every check and a
traced run, in seconds. bench/README.md explains the workloads and metrics.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# One BLAS thread, which is at most nproc on any machine; on the 2-core
# reference machine 1 and 2 threads measured the same.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 3
# Relative tolerance when a re-scored assignment is compared with its score.
SCORE_RTOL = 1e-9
# Absolute slack allowed above exact log Z for the two lower bounds.
BOUND_SLACK = 1e-9
# A partition span may exceed the estimator's own wall_clock by the
# argument checks and the tracing wrapper around it, no more than this.
WALL_CLOCK_SLACK_S = 0.05
# Reported for an end-to-end metric the workload does not produce, so that
# every result line carries every metric (see README.md).
NOT_APPLICABLE = 1.0


@dataclass(frozen=True)
class Workload:
    gen: tuple  # `relaxround gen` flags without --seed/--out
    command: tuple  # `relaxround map|logz` flags without --instance/--seed/--out
    instances: int  # distinct instances per run, generated from the seed
    dominant: tuple  # layers expected to hold the largest share of wall time

    @property
    def kind(self):
        return self.command[0]


WORKLOADS = {
    "map-rbm501": Workload(
        gen=("--kind", "random", "--m", "300", "--p", "200"),
        command=("map", "--methods", "rrr,ag,rrr-ag"),
        instances=3,
        dominant=("relaxation",),
    ),
    "map-hard161": Workload(
        gen=("--kind", "hard", "--m", "100", "--p", "60", "--pairs", "3",
             "--couple", "50", "--bias", "5"),
        command=("map", "--methods", "ag,rrr-ag", "--sweeps", "4000", "--chains", "8"),
        instances=5,
        dominant=("gibbs",),
    ),
    "logz-rbm501": Workload(
        gen=("--kind", "random", "--m", "16", "--p", "484"),
        command=("logz", "--methods", "ais,rrr-low,rrr-is", "--samples", "50000",
                 "--restarts", "2"),
        instances=2,
        dominant=("partition", "rounding"),
    ),
}

# The same workloads at a size that runs in well under a second each.
SMOKE_WORKLOADS = {
    "map-rbm501": Workload(
        gen=("--kind", "random", "--m", "30", "--p", "20"),
        command=("map", "--methods", "rrr,ag,rrr-ag", "--samples", "100",
                 "--sweeps", "40", "--restarts", "2"),
        instances=1,
        dominant=("relaxation",),
    ),
    "map-hard161": Workload(
        gen=("--kind", "hard", "--m", "10", "--p", "6", "--pairs", "3",
             "--couple", "50", "--bias", "5"),
        command=("map", "--methods", "ag,rrr-ag", "--sweeps", "1000", "--chains", "4"),
        instances=1,
        dominant=("gibbs",),
    ),
    "logz-rbm501": Workload(
        gen=("--kind", "random", "--m", "8", "--p", "40"),
        command=("logz", "--methods", "ais,rrr-low,rrr-is", "--samples", "2000",
                 "--restarts", "2", "--num-temps", "50", "--num-runs", "10"),
        instances=1,
        dominant=("partition", "rounding"),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_score": "score",
    "logz_ais_acc": "share",
    "logz_rrr_low_frac": "share",
    "logz_rrr_is_acc": "share",
}

PER_LAYER = {
    "instances.load_s": "s",
    "models.embed_s": "s",
    "models.score_batch_s": "s",
    "models.score_batch_rows": "count",
    "relaxation.solve_s": "s",
    "relaxation.solves": "count",
    "relaxation.iterations": "count",
    "relaxation.s_per_iter": "s",
    "relaxation.lipschitz_s": "s",
    "relaxation.objective": "score",
    "relaxation.gbytes_computed": "GB",
    "rounding.sample_s": "s",
    "rounding.samples": "count",
    "rounding.samples_per_s": "1/s",
    "rounding.build_px_s": "s",
    "rounding.support_s": "s",
    "rounding.support_size": "count",
    "gibbs.sweep_s": "s",
    "gibbs.sweeps": "count",
    "gibbs.s_per_sweep": "s",
    "gibbs.site_updates_per_s": "1/s",
    "gibbs.flip_rate": "ratio",
    "partition.ais_s": "s",
    "partition.ais_block_sweeps": "count",
    "partition.rrr_low_s": "s",
    "partition.distinct_ratio": "ratio",
    "partition.rrr_is_s": "s",
    "partition.rrr_is_self_s": "s",
    "partition.rrr_is_exact_s": "s",
    "cli.self_s": "s",
    "cli.cost_sweep_equivalents": "count",
    "trace.overhead_s": "s",
}


def say(line):
    print(line, flush=True)


# --------------------------------------------------------------- environment


def pin_environment():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def _openblas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                return func()
    return None


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_environment():
    import numpy
    import scipy

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = _read(f"{index}/size")
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": _openblas_threads(numpy),
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "relaxround").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------- processes


@dataclass
class Execution:
    instance: int
    traced: bool
    setup_s: float = math.nan
    wall_s: float = math.nan
    elapsed_s: float = math.nan
    peak_rss_mb: float = math.nan
    doc: dict = None
    spans: list = None
    problems: list = field(default_factory=list)


def spawn(result_path, cli_args=(), spans_path=None, run_id=None):
    """Run child.py in a fresh interpreter; return (setup_s, elapsed_s,
    child result dict or None, error text)."""
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result_path)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path), "--run-id", run_id]
    if cli_args:
        argv += ["--", *cli_args]
    if result_path.exists():
        result_path.unlink()
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return math.nan, time.perf_counter() - started, None, "timed out"
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not result_path.exists():
        return math.nan, elapsed, None, f"exit {proc.returncode}: {proc.stderr.strip()}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    module = Path(result["module"]).resolve()
    if SRC.resolve() not in module.parents:
        return math.nan, elapsed, None, f"imported relaxround from {module}"
    return result["imported_at"] - started, elapsed, result, ""


# ------------------------------------------------------------------- checks


class Checker:
    """Output checks for one workload: re-scoring, lower bounds and report
    bytes that repeat for the same instance and seed."""

    def __init__(self, kind, instances, oracle):
        self.kind = kind
        self.instances = instances  # loaded RbmParams, by index
        self.oracle = oracle  # exact log Z, by index (logz only)
        self.digests = WORK / "digests"
        self.digests.mkdir(parents=True, exist_ok=True)

    def check(self, index, key, data):
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        stored = self.digests / f"{key}.sha256"
        if stored.exists():
            if stored.read_text() != digest:
                problems.append("report bytes differ from the first run of this seed")
        else:
            stored.write_text(digest)
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"], None
        if self.kind == "map":
            problems += self._check_map(index, doc)
        else:
            problems += self._check_logz(index, doc)
        return problems, doc

    def _check_map(self, index, doc):
        from relaxround.models import rbm_score

        problems = []
        inst = self.instances[index]
        for name, entry in doc["methods"].items():
            best = entry["best_score"]
            assignment = entry["best_assignment"]
            rescored = rbm_score(inst, assignment["v"], assignment["h"])
            if not abs(rescored - best) <= SCORE_RTOL * max(1.0, abs(best)):
                problems.append(f"{name}: assignment scores {rescored!r}, report says {best!r}")
        return problems

    def _check_logz(self, index, doc):
        exact = self.oracle[index]
        methods = doc["methods"]
        problems = []
        values = {
            "ais": methods["ais"]["log_z"],
            "rrr-low": methods["rrr-low"]["log_z"],
            "rrr-is": methods["rrr-is"]["log_z"],
            "rrr-is exact support": methods["rrr-is"]["log_z_exact_support"],
        }
        for name, value in values.items():
            if not math.isfinite(value):
                problems.append(f"{name}: log Z {value!r} is not finite")
        for name in ("rrr-low", "rrr-is exact support"):
            if not values[name] <= exact + BOUND_SLACK:
                problems.append(f"{name}: {values[name]!r} exceeds exact log Z {exact!r}")
        return problems


def quality(kind, doc, exact):
    """Quality of one report: the winner's score, or each estimate's
    accuracy as a share of the exact log Z."""
    if kind == "map":
        return {"best_score": doc["methods"][doc["winner"]]["best_score"]}
    m = doc["methods"]
    return {
        "logz_ais_acc": 1.0 - abs(m["ais"]["log_z"] - exact) / exact,
        "logz_rrr_low_frac": m["rrr-low"]["log_z"] / exact,
        "logz_rrr_is_acc": 1.0 - abs(m["rrr-is"]["log_z"] - exact) / exact,
    }


def quality_line(kind, doc, exact):
    """Per-instance quality in native units: every method's best score, or
    each log Z error in nats."""
    m = doc["methods"]
    if kind == "map":
        scores = ", ".join(f"{k} {v['best_score']:.4f}" for k, v in m.items())
        return f"best_score {scores} (winner {doc['winner']})"
    return (
        f"ais_err {abs(m['ais']['log_z'] - exact):.4f} nats, "
        f"rrr_low_gap {exact - m['rrr-low']['log_z']:.4f} nats, "
        f"rrr_is_err {abs(m['rrr-is']['log_z'] - exact):.4f} nats "
        f"(exact {exact:.4f})"
    )


# -------------------------------------------------------------------- spans


def layer_metrics(spans, doc):
    """Per-layer metrics of one traced command, from its spans and report.
    Values named *_computed come from array sizes, not from the program."""

    def dur(span):
        return span["end"] - span["start"]

    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += dur(span)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def total(name):
        return sum(dur(s) for s in named[name])

    def self_total(name):
        return sum(dur(s) - covered[s["id"]] for s in named[name])

    def attr(name, key):
        return sum(s["attrs"][key] for s in named[name])

    def ratio(num, den):
        return num / den if den else 0.0

    root = named["cli.main"][0]
    wall = dur(root)
    solves = named["relaxation.solve"]
    # A fixed step multiplies A by X twice (gradient, then the new
    # objective) and each restart once more at its start. Each product reads
    # A and X and writes one n x k block; with a width-k X it counts as k
    # matrix-vector products, the CLI's cost unit.
    products = [
        (a, a["restarts"] + 2 * a["iterations"]) for a in (s["attrs"] for s in solves)
    ]
    matvecs = sum(count * a["k"] for a, count in products)
    product_bytes = sum(
        count * 8 * (a["n"] ** 2 + 2 * a["n"] * a["k"]) for a, count in products
    )
    cli_iter_k = sum(a["iterations"] * a["k"] for a, _ in products)
    iterations = attr("relaxation.solve", "iterations")
    sample_s = self_total("rounding.sample")
    sweep_s = total("gibbs.sweep")
    site_updates = attr("gibbs.sweep", "n")
    ais = named["partition.ais"]
    rrr_low = named["partition.rrr_low"]
    m = {
        "instances.load_s": total("instances.load"),
        "models.embed_s": total("models.embed"),
        "models.score_batch_s": total("models.score_batch"),
        "models.score_batch_rows": attr("models.score_batch", "rows"),
        "relaxation.solve_s": total("relaxation.solve"),
        "relaxation.solves": len(solves),
        "relaxation.iterations": iterations,
        "relaxation.s_per_iter": ratio(total("relaxation.solve"), iterations),
        "relaxation.lipschitz_s": total("relaxation.lipschitz"),
        "relaxation.objective": max((s["attrs"]["objective"] for s in solves), default=0.0),
        "relaxation.gbytes_computed": product_bytes / 1e9,
        "rounding.sample_s": sample_s,
        "rounding.samples": attr("rounding.sample", "samples"),
        "rounding.samples_per_s": ratio(attr("rounding.sample", "samples"), sample_s),
        "rounding.build_px_s": total("rounding.build_px"),
        "rounding.support_s": total("rounding.support"),
        "rounding.support_size": attr("rounding.support", "size"),
        "gibbs.sweep_s": sweep_s,
        "gibbs.sweeps": len(named["gibbs.sweep"]),
        "gibbs.s_per_sweep": ratio(sweep_s, len(named["gibbs.sweep"])),
        "gibbs.site_updates_per_s": ratio(site_updates, sweep_s),
        "gibbs.flip_rate": ratio(attr("gibbs.sweep", "flips"), site_updates),
        "partition.ais_s": total("partition.ais"),
        "partition.ais_block_sweeps": sum(
            (s["attrs"]["num_temps"] - 1) * s["attrs"]["num_runs"] for s in ais
        ),
        "partition.rrr_low_s": total("partition.rrr_low"),
        "partition.distinct_ratio": ratio(
            attr("partition.rrr_low", "distinct"), attr("partition.rrr_low", "samples")
        ),
        "partition.rrr_is_s": total("partition.rrr_is"),
        "partition.rrr_is_self_s": self_total("partition.rrr_is"),
        "partition.rrr_is_exact_s": total("partition.rrr_is_exact"),
        "cli.self_s": wall - covered[root["id"]],
        "cli.cost_sweep_equivalents": sum(
            e.get("cost_sweep_equivalents", 0) for e in doc["methods"].values()
        ),
    }
    layers = defaultdict(float)
    for span in spans:
        layers[span["name"].split(".")[0]] += dur(span) - covered[span["id"]]
    work = {
        "relaxation.matvecs_computed": matvecs,
        "relaxation.matvecs_cli_counted": cli_iter_k,
        "gibbs.site_updates": site_updates,
        "partition.ais_block_sweeps_computed": m["partition.ais_block_sweeps"],
        "cli.cost_sweep_equivalents": m["cli.cost_sweep_equivalents"],
    }
    problems = []
    for span in ais + rrr_low + named["partition.rrr_is"] + named["partition.rrr_is_exact"]:
        gap = dur(span) - span["attrs"]["wall_clock"]
        if not -1e-6 <= gap <= WALL_CLOCK_SLACK_S + 0.05 * dur(span):
            problems.append(
                f"{span['name']}: span {dur(span):.6f} s vs wall_clock "
                f"{span['attrs']['wall_clock']:.6f} s"
            )
    return m, {k: v / wall for k, v in layers.items()}, work, problems


# --------------------------------------------------------------------- runs


def prepare(name, wl, seed, run_dir):
    """Generate this seed's instances through the library's own `gen`
    command and, for log Z workloads, compute the exact oracle. Runs before
    any timed or memory-measured command."""
    from relaxround import cli
    from relaxround.instances import load_instance
    from relaxround.partition import exact_logz_rbm

    run_dir.mkdir(parents=True, exist_ok=True)
    paths, instances, oracle = [], [], []
    for i in range(wl.instances):
        path = run_dir / f"instance-{i}.json"
        rc = cli.main(["gen", *wl.gen, "--seed", str(seed * 100 + i), "--out", str(path)])
        if rc != 0:
            raise SystemExit(f"bench: generating instance {i} of {name} failed ({rc})")
        paths.append(path.relative_to(ROOT).as_posix())
        instances.append(load_instance(str(path)))
        if wl.kind == "logz":
            oracle.append(exact_logz_rbm(instances[-1]))
    return paths, instances, oracle


def run_workload(name, wl, seed, seconds, trace, work_dir):
    """Measure one workload; print a line per command and return the
    result object of the benchmark's last output line."""
    run_dir = work_dir / f"{name}-s{seed}"
    paths, instances, oracle = prepare(name, wl, seed, run_dir)
    checker = Checker(wl.kind, instances, oracle)
    src = source_digest()
    result_path = run_dir / "child-result.json"
    report_rel = (run_dir / "report.json").relative_to(ROOT).as_posix()

    # Warm the file cache and byte-compile once; not counted.
    spawn(result_path)
    deadline = time.perf_counter() + seconds
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _, result, error = spawn(result_path)
        if result is None:
            raise SystemExit(f"bench: set-up probe failed: {error}")
        setups.append(setup)

    def execute(index, traced):
        args = [*wl.command, "--instance", paths[index], "--seed", str(seed),
                "--out", report_rel]
        run_id = f"{name}-s{seed}-{len(executions)}"
        spans_path = run_dir / f"spans-{run_id}.jsonl" if traced else None
        ex = Execution(instance=index, traced=traced)
        report = ROOT / report_rel
        if report.exists():
            report.unlink()
        setup, ex.elapsed_s, result, error = spawn(result_path, args, spans_path, run_id)
        if result is None:
            ex.problems.append(error)
        elif result["exit_code"] != 0:
            ex.problems.append(f"relaxround exited {result['exit_code']}")
        if result is not None and result.get("missing_targets"):
            say(f"trace: not wrapped, not found: {', '.join(result['missing_targets'])}")
        if not ex.problems:
            ex.setup_s, ex.wall_s = setup, result["wall_s"]
            ex.peak_rss_mb = result["peak_rss_mb"]
            key = hashlib.sha256(
                "\0".join([src, str(seed), *args]).encode()
                + (ROOT / paths[index]).read_bytes()
            ).hexdigest()
            problems, doc = checker.check(index, key, report.read_bytes())
            ex.problems += problems
            ex.doc = doc
            if traced and doc is not None:
                with open(spans_path, encoding="utf-8") as fh:
                    ex.spans = [json.loads(line) for line in fh]
        status = "ok" if not ex.problems else "FAILED: " + "; ".join(ex.problems)
        say(
            f"run instance={index} traced={int(traced)} wall_s={ex.wall_s:.4f} "
            f"setup_s={ex.setup_s:.4f} peak_rss_mb={ex.peak_rss_mb:.1f} {status}"
        )
        return ex

    # Each cycle is one command per instance, or in a traced run one
    # untraced and one traced command on the same instance. Another cycle
    # step starts only if the slowest such step so far would still end
    # before the deadline.
    executions = []
    if trace:
        cycle = [(i, t) for i in range(wl.instances) for t in (False, True)]
        minimum, stride = 2, 2
    else:
        cycle = [(i, False) for i in range(wl.instances)]
        minimum, stride = len(cycle), 1
    step = 0
    while True:
        if step >= minimum and step % stride == 0:
            predicted = sum(
                max((e.elapsed_s for e in executions if e.traced == t), default=0.0)
                for t in {t for _, t in cycle}
            )
            if time.perf_counter() + predicted > deadline:
                break
        index, traced = cycle[step % len(cycle)]
        executions.append(execute(index, traced))
        step += 1

    ok = [e for e in executions if not e.problems]
    setups += [e.setup_s for e in ok]
    if trace:
        metrics = traced_metrics(wl, ok)
    else:
        metrics = end_to_end_metrics(wl, ok, setups, oracle)
    failed = sum(1 for e in executions if e.problems)
    say(f"ops_failed {failed / len(executions)!r} ratio ({failed} of {len(executions)})")
    units = END_TO_END if not trace else PER_LAYER
    for key, value in metrics.items():
        say(f"metric {key} {value!r} {units[key]}")
    return {
        "correct": failed == 0 and bool(ok) and len(metrics) == len(units),
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def end_to_end_metrics(wl, ok, setups, oracle):
    untraced = [e for e in ok if not e.traced]
    if not untraced:
        return {}
    by_instance = defaultdict(list)
    for e in untraced:
        by_instance[e.instance].append(e)
    walls = sorted(e.wall_s for e in untraced)
    say(f"wall_s over {len(walls)} commands: least {walls[0]:.4f}, "
        f"median {statistics.median(walls):.4f}, greatest {walls[-1]:.4f} s")
    metrics = {
        # The mean over the run's commands, that is, the run's total time in
        # cli.main per command. On a shared host whose speed drifts for tens
        # of seconds at a time, its worst spread across runs was the smallest
        # of the summaries tried (README.md, Measured stability).
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(e.peak_rss_mb for e in untraced),
    }
    per_instance = []
    for index, runs in sorted(by_instance.items()):
        exact = oracle[index] if oracle else None
        per_instance.append(quality(wl.kind, runs[0].doc, exact))
        say(f"quality instance={index}: {quality_line(wl.kind, runs[0].doc, exact)}")
    for key in ("best_score", "logz_ais_acc", "logz_rrr_low_frac", "logz_rrr_is_acc"):
        values = [q[key] for q in per_instance if key in q]
        metrics[key] = statistics.fmean(values) if values else NOT_APPLICABLE
    return metrics


def traced_metrics(wl, ok):
    traced = [e for e in ok if e.traced]
    if not traced:
        return {}
    per_run, shares = [], []
    for e in traced:
        m, layer_share, work, problems = layer_metrics(e.spans, e.doc)
        e.problems += problems
        for problem in problems:
            say(f"trace check FAILED: {problem}")
        per_run.append(m)
        shares.append(layer_share)
        say("work " + " ".join(f"{k}={v}" for k, v in work.items()))
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    untraced = {e.instance: e.wall_s for e in ok if not e.traced}
    overheads = [e.wall_s - untraced[e.instance] for e in traced if e.instance in untraced]
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0

    share = {k: statistics.median(s.get(k, 0.0) for s in shares) for k in shares[0]}
    say("layer self-time share of wall: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(share.items(), key=lambda kv: -kv[1])
    ))
    expected = sum(share.get(layer, 0.0) for layer in wl.dominant)
    others = max((v for k, v in share.items() if k not in wl.dominant), default=0.0)
    verdict = "confirmed" if expected > others else "NOT confirmed"
    say(f"dominant layer {'+'.join(wl.dominant)} share {expected:.3f} {verdict}")
    return metrics


def smoke():
    """Every workload at reduced size, untraced then traced, every check."""
    all_correct = True
    for name, wl in SMOKE_WORKLOADS.items():
        for trace in (0, 1):
            say(f"== smoke {name} trace={trace}")
            result = run_workload(name, wl, 1, 0, trace, WORK / "smoke")
            say(json.dumps(result))
            all_correct &= result["correct"]
    say("smoke " + ("passed" if all_correct else "FAILED"))
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "relaxround" / "cli.py").is_file():
        print(f"bench: no relaxround sources under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    pin_environment()
    say("env " + json.dumps(run_environment(), sort_keys=True))
    if args.smoke:
        return smoke()
    say(f"bench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    result = run_workload(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
        args.trace, WORK,
    )
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
