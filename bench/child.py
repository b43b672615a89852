"""One fresh process of the benchmark: import the CLI, run one command.

    python child.py --result PATH [--spans PATH --run-id ID] [-- CLI ARGS...]

Writes a JSON object to --result with the monotonic time at which
`relaxround.cli` finished importing, the time spent inside `cli.main`, its
exit code and this process's peak resident memory (VmHWM). Without CLI
arguments it only imports (a set-up probe). With --spans it first wraps the library
functions the command reaches and writes one span per call, as JSON lines,
after the command returns. Timing uses `time.perf_counter`, which on Linux
reads CLOCK_MONOTONIC and so can be compared with the parent's clock.
"""

import json
import sys
import time


def _split_argv(argv):
    if "--" in argv:
        cut = argv.index("--")
        return argv[:cut], argv[cut + 1 :]
    return argv, []


class SpanRecorder:
    """Spans kept in memory: id, name, start, end, parent id, run id and
    attributes read from the call's arguments and result."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def begin(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, describe=None):
        """Replace `module.attr` by a function that records a span around
        each call. `describe(args, kwargs, result)` returns attributes; it
        runs after the span has ended, so its cost is not in the span."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span["attrs"] = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def install_tracing(recorder):
    """Wrap, from outside, the functions that the CLI and the library
    modules bind by name. Returns the wrap targets that were not found."""
    from relaxround import cli, partition, relaxation, rounding

    def solve(args, kwargs, sol):
        params, opts = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "opts")
        return {
            "n": params.n,
            "k": opts.k,
            "restarts": opts.restarts,
            "iterations": sol.iterations,
            "objective": sol.objective,
        }

    def sample(args, kwargs, batch):
        return {"samples": len(batch)}

    def rows(args, kwargs, scores):
        return {"rows": int(scores.shape[0])}

    def support(args, kwargs, out):
        return {"size": len(out)}

    def sweep(args, kwargs, new_state):
        before = _arg(args, kwargs, 1, "state").x
        return {"n": int(before.shape[0]), "flips": int((before != new_state.x).sum())}

    def estimate(args, kwargs, report):
        attrs = {"wall_clock": report.wall_clock, "samples": report.budget.samples}
        if "distinct" in report.details:
            attrs["distinct"] = report.details["distinct"]
        return attrs

    def ais(args, kwargs, report):
        attrs = estimate(args, kwargs, report)
        attrs["num_temps"] = _arg(args, kwargs, 1, "num_temps")
        attrs["num_runs"] = _arg(args, kwargs, 2, "num_runs")
        return attrs

    targets = [
        (cli, "load_instance", "instances.load", None),
        (cli, "rbm_to_mrf", "models.embed", None),
        (cli, "bits_to_hyp", "models.embed", None),
        (cli, "fold_linear_bits", "models.embed", None),
        (cli, "fold_linear_hyp", "models.embed", None),
        (rounding, "score_batch", "models.score_batch", rows),
        (partition, "score_batch", "models.score_batch", rows),
        (cli, "solve_lrp", "relaxation.solve", solve),
        (relaxation, "estimate_lipschitz", "relaxation.lipschitz", None),
        (rounding, "_sample_batch", "rounding.sample", sample),
        (partition, "_sample_batch", "rounding.sample", sample),
        (partition, "build_px_k2", "rounding.build_px", None),
        (partition, "enumerate_support_k2", "rounding.support", support),
        (cli, "gibbs_sweep", "gibbs.sweep", sweep),
        (cli, "ais_logz", "partition.ais", ais),
        (cli, "rrr_low", "partition.rrr_low", estimate),
        (cli, "rrr_is", "partition.rrr_is", estimate),
        (cli, "rrr_is_exact", "partition.rrr_is_exact", estimate),
        (cli, "exact_logz_rbm", "partition.exact", None),
    ]
    missing = []
    for module, attr, name, describe in targets:
        if hasattr(module, attr):
            recorder.wrap(module, attr, name, describe)
        else:
            missing.append(f"{module.__name__}.{attr}")
    return missing


def peak_rss_mb():
    """Peak resident memory of this process's own address space.

    VmHWM belongs to the memory map that exec created, so it starts from
    zero in every child. getrusage's ru_maxrss does not: Linux carries the
    high-water mark across fork/vfork and exec, so a child would report the
    parent's peak if that were larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    own, cli_argv = _split_argv(argv)
    opts = dict(zip(own[::2], own[1::2]))
    import relaxround
    import relaxround.cli as cli

    imported = time.perf_counter()
    out = {"imported_at": imported, "module": relaxround.__file__}
    if cli_argv:
        recorder = None
        if "--spans" in opts:
            recorder = SpanRecorder(run_id=opts["--run-id"])
            out["missing_targets"] = install_tracing(recorder)
            root = recorder.begin("cli.main")
        start = time.perf_counter()
        out["exit_code"] = cli.main(cli_argv)
        out["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.end(root)
            recorder.write(opts["--spans"])
    out["peak_rss_mb"] = peak_rss_mb()
    with open(opts["--result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
