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

from .gibbs import AnnealSchedule, annealed_gibbs, rrr_ag
from .instances import InstanceFormatError, dumps_instance, load_instance, write_atomic
from .models import (
    CapExceededError,
    MrfParams,
    RbmParams,
    brute_force_map,
    embed,
    gen_hard_rbm,
    gen_random_rbm,
)
from .partition import ais_logz, exact_logz_rbm, rrr_is, rrr_low
from .relaxation import LrpOptions, solve_lrp
from .rounding import rrr_map_sample, rrr_sample_blocks

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


class UsageError(Exception):
    """Invalid flag combination or method/instance mismatch."""


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


def _instance_meta(inst, path: str) -> dict:
    meta = {"path": path, "kind": "mrf" if isinstance(inst, MrfParams) else "rbm"}
    meta["domain"] = inst.domain.value
    if isinstance(inst, MrfParams):
        meta["n"] = inst.n
    else:
        meta["m"] = inst.m
        meta["p"] = inst.p
    return meta


def _parse_methods(raw: str, allowed) -> list:
    methods = [item.strip() for item in raw.split(",") if item.strip()]
    if not methods:
        raise UsageError("no methods given")
    for method in methods:
        if method not in allowed:
            raise UsageError(
                f"unknown method {method!r}; choose from {', '.join(allowed)}"
            )
    if len(set(methods)) != len(methods):
        raise UsageError("duplicate method names")
    return methods


def _run_map(args) -> int:
    inst = load_instance(args.instance)
    prob = embed(inst)
    mrf = prob.mrf
    n = mrf.n
    methods = _parse_methods(args.methods, MAP_METHODS)
    seed = args.seed
    if args.chains < 1:
        raise UsageError("--chains must be >= 1")
    chain_sweeps = args.chain_sweeps
    if chain_sweeps is None:
        chain_sweeps = max(1, args.sweeps // args.chains)
    # rrr and rrr-ag round one solution; each entry's cost still counts the
    # whole solve, as if its method ran alone.
    if {"rrr", "rrr-ag"} & set(methods):
        sol = _relax(mrf, args, _TAG_MAP_LRP)

    entries = {}
    for method in methods:
        if method == "rrr":
            batch = rrr_map_sample(
                mrf, sol.X, args.samples, _derive_seed(seed, _TAG_MAP_SAMPLE)
            )
            best_i = int(np.argmax(batch.scores))
            running = np.maximum.accumulate(batch.scores) + prob.offset
            entries[method] = {
                "best_score": float(batch.scores[best_i]) + prob.offset,
                "best_assignment": prob.to_native(batch.samples[best_i]),
                "relaxation_objective": sol.objective,
                "relaxation_iterations": sol.iterations,
                "cost_sweep_equivalents": sol.matvecs
                + math.ceil(args.samples * args.k / n),
                "score_trace": [float(v) for v in running],
            }
        elif method == "ag":
            init_rng = np.random.default_rng(_derive_seed(seed, _TAG_AG_INIT))
            init = (2 * init_rng.integers(0, 2, size=n) - 1).astype(np.int8)
            schedule = AnnealSchedule.linear(args.t_high, args.sweeps)
            state = annealed_gibbs(
                mrf, schedule, init, _derive_seed(seed, _TAG_AG_RUN)
            )
            entries[method] = {
                "best_score": state.best_score + prob.offset,
                "best_assignment": prob.to_native(state.best_x),
                "cost_sweep_equivalents": len(schedule),
                "score_trace": [v + prob.offset for v in state.score_trace],
            }
        elif method == "rrr-ag":
            schedule = AnnealSchedule.linear(args.t_high, chain_sweeps)
            state = rrr_ag(
                mrf, sol.X, schedule, args.chains, _derive_seed(seed, _TAG_RRRAG_SAMPLE)
            )
            entries[method] = {
                "best_score": state.best_score + prob.offset,
                "best_assignment": prob.to_native(state.best_x),
                "relaxation_objective": sol.objective,
                "relaxation_iterations": sol.iterations,
                "cost_sweep_equivalents": sol.matvecs
                + math.ceil(args.chains * args.k / n)
                + args.chains * len(schedule),
                "chains": args.chains,
                "chain_sweeps": len(schedule),
                "score_trace": [v + prob.offset for v in state.score_trace],
            }
        elif method == "brute":
            x, value = brute_force_map(mrf)
            entries[method] = {
                "best_score": value + prob.offset,
                "best_assignment": prob.to_native(x),
                "cost_sweep_equivalents": 1 << n,
            }

    winner = max(methods, key=lambda name: entries[name]["best_score"])
    doc = {
        "command": "map",
        "instance": _instance_meta(inst, args.instance),
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
    _write_report(args, doc, _map_csv)
    return EXIT_OK


def _map_csv(doc: dict) -> str:
    lines = ["method,best_score,cost_sweep_equivalents"]
    for name, entry in doc["methods"].items():
        lines.append(
            f"{name},{entry['best_score']!r},{entry['cost_sweep_equivalents']}"
        )
    return "\n".join(lines) + "\n"


def _run_logz(args) -> int:
    inst = load_instance(args.instance)
    if not isinstance(inst, RbmParams):
        raise UsageError("logz requires an RBM instance")
    methods = _parse_methods(args.methods, LOGZ_METHODS)
    if "rrr-is" in methods and args.k != 2:
        raise UsageError("rrr-is requires width k=2")
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
        "instance": _instance_meta(inst, args.instance),
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
    _write_report(args, doc, _logz_csv)
    return EXIT_OK


def _logz_csv(doc: dict) -> str:
    lines = ["method,log_z"]
    for name, entry in doc["methods"].items():
        lines.append(f"{name},{entry['log_z']!r}")
        if "log_z_exact_support" in entry:
            lines.append(f"{name}-exact-support,{entry['log_z_exact_support']!r}")
    return "\n".join(lines) + "\n"


def _write_out(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error
    (exit 1), unlike a missing or unreadable input file (exit 2)."""
    try:
        write_atomic(path, text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_report(args, doc: dict, to_csv) -> None:
    text = json.dumps(doc, indent=2) + "\n" if args.format == "json" else to_csv(doc)
    _write_out(args.out, text)


def _run_gen(args) -> int:
    if args.kind == "random":
        params = gen_random_rbm(args.m, args.p, args.seed)
    else:
        params = gen_hard_rbm(
            args.m, args.p, args.pairs, args.couple, args.bias, args.seed
        )
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
    gen.add_argument("--pairs", type=int, default=3, help="planted pairs (hard)")
    gen.add_argument("--couple", type=float, default=5000.0)
    gen.add_argument("--bias", type=float, default=500.0)
    gen.add_argument("--out", required=True, help="output instance path")
    gen.set_defaults(func=_run_gen)

    map_cmd = sub.add_parser("map", help="search for a maximum-score assignment")
    map_cmd.add_argument("--instance", required=True)
    map_cmd.add_argument(
        "--methods", required=True, help=f"comma-separated: {','.join(MAP_METHODS)}"
    )
    map_cmd.add_argument("--seed", type=int, required=True)
    map_cmd.add_argument("--out", required=True, help="report path")
    map_cmd.add_argument("--format", choices=("json", "csv"), default="json")
    map_cmd.add_argument("--k", type=int, default=2, help="relaxation width")
    map_cmd.add_argument("--samples", type=int, default=1000, help="rounding draws")
    map_cmd.add_argument("--restarts", type=int, default=8)
    map_cmd.add_argument("--sweeps", type=int, default=500, help="annealing sweeps")
    map_cmd.add_argument(
        "--chain-sweeps",
        type=int,
        default=None,
        help="sweeps per warm-started chain (default: sweeps // chains)",
    )
    map_cmd.add_argument("--t-high", type=float, default=10.0)
    map_cmd.add_argument("--chains", type=int, default=8)
    map_cmd.set_defaults(func=_run_map)

    logz = sub.add_parser("logz", help="estimate the log partition function")
    logz.add_argument("--instance", required=True)
    logz.add_argument(
        "--methods", required=True, help=f"comma-separated: {','.join(LOGZ_METHODS)}"
    )
    logz.add_argument("--seed", type=int, required=True)
    logz.add_argument("--out", required=True, help="report path")
    logz.add_argument("--format", choices=("json", "csv"), default="json")
    logz.add_argument("--k", type=int, default=2, help="relaxation width")
    logz.add_argument("--samples", type=int, default=10_000, help="rounding draws")
    logz.add_argument("--restarts", type=int, default=8)
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
        return args.func(args)
    except UsageError as exc:
        print(f"relaxround: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
