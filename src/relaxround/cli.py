"""Command-line driver: generate instances, search for MAP assignments,
and estimate log partition functions.

Every instance, whatever its kind and domain, is first rewritten as a
{-1,+1} quadratic model (adding an auxiliary variable when linear terms
are present); native scores are recovered by adding the constant tracked
through the rewrite. Reports never contain timing, so a seeded command
writes byte-identical output on every run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .gibbs import annealed_gibbs, rrr_ag
from .instances import (
    InstanceFormatError,
    dumps_instance,
    instance_header,
    load_instance,
    write_atomic,
)
from .models import (
    CapExceededError,
    MrfParams,
    RbmParams,
    brute_force_map,
    embed,
    gen_hard_rbm,
    score,
    score_batch,
)
from .partition import _fork_join, ais_logz, exact_logz_rbm, rrr_is, rrr_low
from .relaxation import LrpOptions, solve_lrp
from .rounding import rrr_sample_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_CAP = 3

MAP_METHODS = ("rrr", "ag", "rrr-ag", "brute")
LOGZ_METHODS = ("exact", "ais", "rrr-low", "rrr-is")

LOG_2 = math.log(2.0)

# Fixed tags mixed into per-task seeds so each method's randomness is stable
# regardless of which other methods run alongside it.
_TAG_MAP_SAMPLE = 12
_TAG_AG_INIT = 21
_TAG_AG_RUN = 22
_TAG_MAP_LRP = 31
_TAG_RRRAG_SAMPLE = 32
_TAG_LOGZ_AIS = 41
_TAG_LOGZ_LRP = 51
_TAG_LOGZ_LOW_SAMPLE = 52
_TAG_LOGZ_IS = 62

# the least value of each count flag and of --seed, checked whatever methods run
_COUNT_MINIMUMS = {"k": 1, "samples": 1, "restarts": 1, "sweeps": 1, "chains": 1,
                   "num_temps": 2, "num_runs": 1, "seed": 0}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _derive_seed(*entropy) -> int:
    state = np.random.SeedSequence(list(entropy)).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _relax(mrf: MrfParams, args, tag: int):
    """The command's one relaxation, shared by all its rounding methods."""
    opts = LrpOptions(
        k=args.k, restarts=args.restarts, seed=_derive_seed(args.seed, tag)
    )
    return solve_lrp(mrf, opts)


def _parse_methods(raw: str, allowed) -> list:
    methods = [item.strip() for item in raw.split(",") if item.strip()]
    if not methods:
        raise ValueError("no methods given")
    for method in methods:
        if method not in allowed:
            raise ValueError(
                f"unknown method {method!r}; choose from {', '.join(allowed)}"
            )
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate method names")
    return methods


def _run_map(args) -> int:
    inst = load_instance(args.instance)
    prob = embed(inst)
    mrf = prob.mrf
    n = mrf.n
    methods = _parse_methods(args.methods, MAP_METHODS)
    seed = args.seed
    chain_sweeps = max(1, args.sweeps // args.chains)

    def entries_of(names):
        # rrr and rrr-ag round one solution; each entry's cost still counts
        # the whole solve, as if its method ran alone.
        if {"rrr", "rrr-ag"} & set(names):
            sol = _relax(mrf, args, _TAG_MAP_LRP)
        entries = {}
        for method in names:
            if method == "rrr":
                # streamed a block at a time: only the scores and the first
                # best row outlive their block; that row is reported with
                # score(), as every method reports its best state, so equal
                # states tie
                blocks = rrr_sample_blocks(
                    mrf, sol.X, args.samples, _derive_seed(seed, _TAG_MAP_SAMPLE)
                )
                scores, best = [], None
                for rows in blocks:
                    scores.append(score_batch(mrf, rows))
                    i = int(np.argmax(scores[-1]))
                    if best is None or scores[-1][i] > best[0]:
                        best = scores[-1][i], rows[i].copy()
                running = np.maximum.accumulate(np.concatenate(scores)) + prob.offset
                entries[method] = {
                    "best_score": score(mrf, best[1]) + prob.offset,
                    "best_assignment": prob.to_native(best[1]),
                    "relaxation_objective": sol.objective,
                    "relaxation_iterations": sol.iterations,
                    "cost_sweep_equivalents": sol.matvecs
                    + math.ceil(args.samples * args.k / n),
                    "score_trace": [float(v) for v in running],
                }
            elif method == "ag":
                init_rng = np.random.default_rng(_derive_seed(seed, _TAG_AG_INIT))
                init = (2 * init_rng.integers(0, 2, size=n) - 1).astype(np.int8)
                state = annealed_gibbs(
                    mrf, args.t_high, args.sweeps, init, _derive_seed(seed, _TAG_AG_RUN)
                )
                entries[method] = {
                    "best_score": state.best_score + prob.offset,
                    "best_assignment": prob.to_native(state.best_x),
                    "cost_sweep_equivalents": args.sweeps,
                    "score_trace": [v + prob.offset for v in state.score_trace],
                }
            elif method == "rrr-ag":
                state = rrr_ag(
                    mrf, sol.X, args.t_high, chain_sweeps, args.chains,
                    _derive_seed(seed, _TAG_RRRAG_SAMPLE),
                )
                entries[method] = {
                    "best_score": state.best_score + prob.offset,
                    "best_assignment": prob.to_native(state.best_x),
                    "relaxation_objective": sol.objective,
                    "relaxation_iterations": sol.iterations,
                    "cost_sweep_equivalents": sol.matvecs
                    + math.ceil(args.chains * args.k / n)
                    + args.chains * chain_sweeps,
                    "chains": args.chains,
                    "chain_sweeps": chain_sweeps,
                    "score_trace": [v + prob.offset for v in state.score_trace],
                }
            elif method == "brute":
                x, value = brute_force_map(mrf)
                entries[method] = {
                    "best_score": value + prob.offset,
                    "best_assignment": prob.to_native(x),
                    "cost_sweep_equivalents": 1 << n,
                }
        return entries

    # ag's one chain shares nothing with the other methods, and each method
    # draws from its own seed tag, so the chain runs here while the other
    # methods and their one relaxation run beside it (`_fork_join`); the
    # report takes the entries in methods' order
    others = [method for method in methods if method != "ag"]
    if "ag" in methods and others:
        chain, entries = _fork_join(lambda: entries_of(["ag"]), lambda: entries_of(others))
        entries.update(chain)
        entries = {method: entries[method] for method in methods}
    else:
        entries = entries_of(methods)

    winner = max(methods, key=lambda name: entries[name]["best_score"])
    doc = {
        "command": "map",
        "instance": {"path": args.instance, **instance_header(inst)},
        "seed": seed,
        "config": {
            "methods": methods,
            "k": args.k,
            "samples": args.samples,
            "restarts": args.restarts,
            "sweeps": args.sweeps,
            "chain_sweeps": chain_sweeps,
            "t_high": args.t_high,
            "chains": args.chains,
        },
        "embedded_n": n,
        "cost_unit": "sweep-equivalents (one coupling-matrix multiply)",
        "methods": entries,
        "winner": winner,
    }
    _write_report(args, doc, ("best_score", "cost_sweep_equivalents"))
    return EXIT_OK


def _run_logz(args) -> int:
    inst = load_instance(args.instance)
    if not isinstance(inst, RbmParams):
        raise ValueError("logz requires an RBM instance")
    methods = _parse_methods(args.methods, LOGZ_METHODS)
    if "rrr-is" in methods and args.k != 2:
        raise ValueError("rrr-is requires width k=2")
    seed = args.seed
    # The embedded model doubles the partition sum (the auxiliary spin is
    # free), so estimates subtract log 2 where the full embedded sum is
    # targeted; the rewrite constant is added back for {0,1} models.
    if {"rrr-low", "rrr-is"} & set(methods):
        emb = embed(inst)
        sol = _relax(emb.mrf, args, _TAG_LOGZ_LRP)

    entries = {}
    for method in methods:
        if method == "exact":
            value = exact_logz_rbm(inst)
            entries[method] = {"log_z": value}
        elif method == "ais":
            report = ais_logz(
                inst, args.num_temps, args.num_runs, _derive_seed(seed, _TAG_LOGZ_AIS)
            )
            entries[method] = {
                "log_z": report.log_z,
                "weight_std": report.details["weight_std"],
                "num_temps": args.num_temps,
                "num_runs": args.num_runs,
            }
        elif method == "rrr-low":
            blocks = rrr_sample_blocks(
                emb.mrf, sol.X, args.samples, _derive_seed(seed, _TAG_LOGZ_LOW_SAMPLE)
            )
            report = rrr_low(emb.mrf, (emb.canonical(rows) for rows in blocks))
            entries[method] = {
                "log_z": report.log_z + emb.offset,
                "samples": args.samples,
                "distinct": report.details["distinct"],
            }
        elif method == "rrr-is":
            report = rrr_is(
                emb.mrf, sol.X, args.samples, _derive_seed(seed, _TAG_LOGZ_IS)
            )
            exact_support = report.details["log_z_exact_support"]
            entries[method] = {
                "log_z": report.log_z - LOG_2 + emb.offset,
                "log_z_exact_support": exact_support - LOG_2 + emb.offset,
                "samples": args.samples,
                "support_size": report.details["support_size"],
            }

    doc = {
        "command": "logz",
        "instance": {"path": args.instance, **instance_header(inst)},
        "seed": seed,
        "config": {
            "methods": methods,
            "k": args.k,
            "samples": args.samples,
            "restarts": args.restarts,
            "num_temps": args.num_temps,
            "num_runs": args.num_runs,
        },
        "methods": entries,
    }
    _write_report(args, doc, ("log_z",))
    return EXIT_OK


def _write_out(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error
    (exit 1), unlike a missing or unreadable input file (exit 2)."""
    try:
        write_atomic(path, text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv(doc: dict, columns: tuple) -> str:
    """The report's CSV form: a projection of the JSON doc with one row per
    method entry and the repr of each value in `columns`. An rrr-is entry
    adds a row for its exact-support bound."""
    lines = [",".join(("method",) + columns)]
    for name, entry in doc["methods"].items():
        lines.append(",".join([name] + [repr(entry[col]) for col in columns]))
        if "log_z_exact_support" in entry:
            lines.append(f"{name}-exact-support,{entry['log_z_exact_support']!r}")
    return "\n".join(lines) + "\n"


def _write_report(args, doc: dict, columns: tuple) -> None:
    """Write the report as JSON, or as CSV with the command's `columns`."""
    if args.format == "csv":
        _write_out(args.out, _csv(doc, columns))
    else:
        _write_out(args.out, json.dumps(doc, indent=2) + "\n")


def _run_gen(args) -> int:
    # planted flags left out take gen_hard_rbm's defaults
    planted = {key: getattr(args, key) for key in ("pairs", "couple", "bias")}
    planted = {key: value for key, value in planted.items() if value is not None}
    if args.kind == "random":
        if planted:
            raise ValueError(f"--{', --'.join(planted)}: only --kind hard plants pairs")
        planted["pairs"] = 0
    params = gen_hard_rbm(args.m, args.p, seed=args.seed, **planted)
    _write_out(args.out, dumps_instance(params))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaxround", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an RBM instance file")
    gen.add_argument("--kind", choices=("random", "hard"), required=True)
    gen.add_argument("--m", type=int, required=True, help="visible units")
    gen.add_argument("--p", type=int, required=True, help="hidden units")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pairs", type=int, help="planted pairs (hard; default 3)")
    gen.add_argument("--couple", type=float, help="planted W (hard; default 5000)")
    gen.add_argument("--bias", type=float, help="planted a, b (hard; default 500)")
    gen.add_argument("--out", required=True, help="output instance path")
    gen.set_defaults(func=_run_gen)

    map_cmd = sub.add_parser("map", help="search for a maximum-score assignment")
    logz = sub.add_parser("logz", help="estimate the log partition function")
    for cmd, methods, samples in (
        (map_cmd, MAP_METHODS, 1000), (logz, LOGZ_METHODS, 10_000)
    ):
        cmd.add_argument("--instance", required=True)
        cmd.add_argument(
            "--methods", required=True, help=f"comma-separated: {','.join(methods)}"
        )
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--out", required=True, help="report path")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--k", type=int, default=2, help="relaxation width")
        cmd.add_argument("--samples", type=int, default=samples, help="rounding draws")
        cmd.add_argument("--restarts", type=int, default=8)

    map_cmd.add_argument("--sweeps", type=int, default=500, help="annealing sweeps")
    map_cmd.add_argument("--t-high", type=float, default=10.0)
    map_cmd.add_argument("--chains", type=int, default=8)
    map_cmd.set_defaults(func=_run_map)

    logz.add_argument("--num-temps", type=int, default=1000)
    logz.add_argument("--num-runs", type=int, default=100)
    logz.set_defaults(func=_run_logz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        for name, least in _COUNT_MINIMUMS.items():
            if getattr(args, name, least) < least:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {least}")
        if not 1.0 <= getattr(args, "t_high", 1.0) < math.inf:  # whatever methods run
            raise ValueError(f"t_high must be finite and >= 1.0, got {args.t_high}")
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"relaxround: bad instance: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapExceededError as exc:
        print(f"relaxround: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"relaxround: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
