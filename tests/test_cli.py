"""End-to-end command-line tests: generation, MAP reports, log-Z reports,
exit codes, and byte-level determinism."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relaxround
from relaxround import (
    Domain,
    MrfParams,
    RbmParams,
    dumps_instance,
    gen_hard_rbm,
    load_instance,
    rbm_score,
)
from relaxround import cli, gibbs, instances, models, partition, relaxation, rounding
from relaxround.cli import main
from relaxround.instances import write_atomic

from chain_utils import no_child_left, score_tolerance


def run(*argv):
    return main([str(a) for a in argv])


def gen_instance(tmp_path, name="inst.json", m=5, p=4, seed=3, kind="random",
                 **extra):
    path = tmp_path / name
    argv = ["gen", "--kind", kind, "--m", m, "--p", p, "--seed", seed,
            "--out", path]
    for key, value in extra.items():
        argv += [f"--{key}", value]
    assert run(*argv) == 0
    return path


# ------------------------------------------------------------------- gen


def test_gen_deterministic_bytes(tmp_path):
    p1 = gen_instance(tmp_path, "a.json", seed=7, m=20, p=12)
    p2 = gen_instance(tmp_path, "b.json", seed=7, m=20, p=12)
    assert p1.read_bytes() == p2.read_bytes()
    inst = load_instance(p1)
    assert isinstance(inst, RbmParams)
    assert inst.W.shape == (20, 12)


def test_gen_reserialize_round_trip(tmp_path):
    path = gen_instance(tmp_path, seed=11)
    text = path.read_text()
    back = load_instance(path)
    out = tmp_path / "copy.json"
    write_atomic(out, dumps_instance(back))
    assert out.read_text() == text


def test_gen_hard_plants_pairs(tmp_path):
    path = gen_instance(tmp_path, kind="hard", m=20, p=12, seed=7,
                        pairs=3, couple=50.0, bias=5.0)
    inst = load_instance(path)
    assert int((inst.W == 50.0).sum()) == 3
    vis, hid = np.where(inst.W == 50.0)
    assert np.all(inst.a[vis] == 5.0)
    assert np.all(inst.b[hid] == 5.0)


def test_gen_large_instance_shape(tmp_path):
    path = gen_instance(tmp_path, "big.json", m=784, p=500, seed=1)
    inst = load_instance(path)
    assert inst.W.shape == (784, 500)
    assert inst.a.shape == (784,)
    assert inst.b.shape == (500,)


# ------------------------------------------------------------------- map


def test_map_report_structure(tmp_path):
    inst = gen_instance(tmp_path)
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst, "--methods", "rrr,ag,rrr-ag",
               "--seed", 42, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert set(doc["methods"]) == {"rrr", "ag", "rrr-ag"}
    for entry in doc["methods"].values():
        assert np.isfinite(entry["best_score"])
        assert entry["cost_sweep_equivalents"] > 0
    assert doc["winner"] in doc["methods"]
    assert doc["seed"] == 42
    assert doc["config"]["methods"] == ["rrr", "ag", "rrr-ag"]
    assert doc["instance"]["kind"] == "rbm"


def test_map_brute_matches_native_enumeration(tmp_path):
    inst_path = gen_instance(tmp_path, m=4, p=3, seed=9)
    rbm = load_instance(inst_path)
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst_path, "--methods", "brute",
               "--seed", 0, "--out", out) == 0
    doc = json.loads(out.read_text())
    entry = doc["methods"]["brute"]

    best = -math.inf
    for code in range(2 ** 7):
        bits = [(code >> (6 - i)) & 1 for i in range(7)]
        x = 2 * np.array(bits, dtype=float) - 1
        best = max(best, rbm_score(rbm, x[:4], x[4:]))
    assert abs(entry["best_score"] - best) <= 1e-9

    v = np.array(entry["best_assignment"]["v"], dtype=float)
    h = np.array(entry["best_assignment"]["h"], dtype=float)
    assert abs(rbm_score(rbm, v, h) - entry["best_score"]) <= 1e-9


def test_map_zero_one_instances(tmp_path):
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 5))
    m01 = MrfParams(A, Domain.ZERO_ONE)
    inst = tmp_path / "m01.json"
    write_atomic(inst, dumps_instance(m01))
    out = tmp_path / "out.json"
    assert run("map", "--instance", inst, "--methods", "brute,rrr",
               "--seed", 5, "--out", out) == 0
    doc = json.loads(out.read_text())

    best = -math.inf
    for code in range(32):
        bits = np.array([(code >> (4 - i)) & 1 for i in range(5)], dtype=float)
        best = max(best, float(bits @ m01.A @ bits))
    assert abs(doc["methods"]["brute"]["best_score"] - best) <= 1e-9
    bits = np.array(doc["methods"]["brute"]["best_assignment"]["x"], dtype=float)
    assert set(np.unique(bits)) <= {0.0, 1.0}
    assert abs(float(bits @ m01.A @ bits) - best) <= 1e-9


def test_map_and_logz_zero_one_rbm(tmp_path):
    rng = np.random.default_rng(32)
    rbm = RbmParams(rng.normal(size=(4, 3)), rng.normal(size=4),
                    rng.normal(size=3), Domain.ZERO_ONE)
    inst = tmp_path / "rbm01.json"
    write_atomic(inst, dumps_instance(rbm))
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst, "--methods", "brute,rrr,ag,rrr-ag",
               "--seed", 6, "--out", out, "--samples", 200, "--sweeps", 80) == 0
    doc = json.loads(out.read_text())
    for entry in doc["methods"].values():
        v = entry["best_assignment"]["v"]
        h = entry["best_assignment"]["h"]
        assert set(v + h) <= {0, 1}
        assert abs(rbm_score(rbm, v, h) - entry["best_score"]) <= 1e-9

    best = -math.inf
    for code in range(2 ** 7):
        bits = np.array([(code >> (6 - i)) & 1 for i in range(7)], dtype=float)
        best = max(best, rbm_score(rbm, bits[:4], bits[4:]))
    assert abs(doc["methods"]["brute"]["best_score"] - best) <= 1e-9

    out = tmp_path / "logz.json"
    assert run("logz", "--instance", inst, "--methods", "exact,rrr-low,rrr-is",
               "--seed", 6, "--out", out, "--samples", 2000) == 0
    doc = json.loads(out.read_text())
    exact = doc["methods"]["exact"]["log_z"]
    assert doc["methods"]["rrr-low"]["log_z"] <= exact + 1e-9
    assert doc["methods"]["rrr-is"]["log_z_exact_support"] <= exact + 1e-9


def test_map_score_traces_are_running_maxima(tmp_path):
    # the trace keeps rrr's batch scores and best_score is models.score of
    # the best row, so they agree within a sweep score's rounding bound; on
    # the 30 x 20 instance the trace ends at 168.59088617258976 and
    # best_score is 168.5908861725898
    out = tmp_path / "map.json"
    for inst, seed, samples in (
        (gen_instance(tmp_path, seed=13), 1, 50),
        (gen_instance(tmp_path, "r0.json", m=30, p=20, seed=0), 4, 1000),
    ):
        assert run("map", "--instance", inst, "--methods", "rrr", "--seed", seed,
                   "--out", out, "--samples", samples) == 0
        doc = json.loads(out.read_text())
        trace = doc["methods"]["rrr"]["score_trace"]
        assert len(trace) == samples
        assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))
        gap = abs(trace[-1] - doc["methods"]["rrr"]["best_score"])
        assert gap <= score_tolerance(models.embed(load_instance(inst)).mrf.A)


def test_map_best_scores_are_score_of_the_assignment(tmp_path):
    # every method reports models.score of its embedded best state plus the
    # offset, exactly, so methods that find the same state tie bit for bit;
    # rrr's batched scores round by batch size and differ by ulps
    def corner(emb, native):
        t = np.concatenate(list(native.values())).astype(float)  # x, or v then h
        if emb.source.domain is Domain.ZERO_ONE:
            t = 2.0 * t - 1.0
        return np.concatenate([[1.0], t]) if emb.has_aux else t

    cases = [(gen_instance(tmp_path, f"r{seed}.json", m=30, p=20, seed=seed),
              "rrr,ag,rrr-ag") for seed in range(3)]
    rng = np.random.default_rng(35)
    for name, inst in (("small.json", gen_hard_rbm(6, 5, pairs=0, seed=35)),
                       ("rbm01.json", RbmParams(rng.normal(size=(5, 4)),
                                                rng.normal(size=5),
                                                rng.normal(size=4),
                                                Domain.ZERO_ONE)),
                       ("mrf01.json", MrfParams(rng.normal(size=(7, 7)),
                                                Domain.ZERO_ONE))):
        write_atomic(tmp_path / name, dumps_instance(inst))
        cases.append((tmp_path / name, "rrr,ag,rrr-ag,brute"))
    out = tmp_path / "map.json"
    for path, methods in cases:
        assert run("map", "--instance", path, "--methods", methods,
                   "--seed", 4, "--out", out) == 0
        emb = models.embed(load_instance(path))
        for name, entry in json.loads(out.read_text())["methods"].items():
            x = corner(emb, entry["best_assignment"])
            want = models.score(emb.mrf, x) + emb.offset
            assert entry["best_score"] == want, (path.name, name)


def test_map_budget_parity_default(tmp_path):
    inst = gen_instance(tmp_path, seed=14)
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst, "--methods", "ag,rrr-ag",
               "--seed", 2, "--out", out, "--sweeps", 400, "--chains", 8) == 0
    doc = json.loads(out.read_text())
    ag_cost = doc["methods"]["ag"]["cost_sweep_equivalents"]
    combo = doc["methods"]["rrr-ag"]
    assert combo["chain_sweeps"] == 50  # 400 // 8
    assert combo["chains"] * combo["chain_sweeps"] == ag_cost


def test_map_chain_sweeps_and_t_high(tmp_path, capsys, recwarn):
    inst = gen_instance(tmp_path, seed=15)
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst, "--methods", "rrr,rrr-ag", "--seed", 3,
               "--out", out, "--sweeps", 6, "--chains", 2) == 0
    doc = json.loads(out.read_text())
    combo = doc["methods"]["rrr-ag"]
    assert doc["config"]["chain_sweeps"] == combo["chain_sweeps"] == 3
    assert len(combo["score_trace"]) == 3
    # both entries count the one shared solve; rrr-ag adds its two starts'
    # rounding and chains * chain_sweeps sweeps
    n, k, samples = doc["embedded_n"], doc["config"]["k"], doc["config"]["samples"]
    extra = combo["cost_sweep_equivalents"] - doc["methods"]["rrr"]["cost_sweep_equivalents"]
    assert extra == math.ceil(2 * k / n) + 2 * 3 - math.ceil(samples * k / n)
    # a chain must cool from a finite t_high >= 1 down to 1; each bad value
    # ends in one error line that names t_high, with no numpy warning, and
    # no report, whatever methods run
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    for t_high in ("0.5", "inf", "nan"):
        for method in ("ag", "rrr-ag", "rrr", "brute"):
            assert run("map", "--instance", inst, "--methods", method, "--seed", 3,
                       "--out", bad, "--t-high", t_high) == 1, (t_high, method)
            err = capsys.readouterr().err
            assert err.startswith("relaxround: error: t_high") and err.count("\n") == 1
    assert not bad.exists()
    assert not recwarn.list


def test_malformed_instances_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    docs = {
        "inf.json": '{"kind": "mrf", "domain": "pm1", "n": 2, "A": [[0, 1e999], [0, 0]]}',
        "ndim.json": '{"kind": "mrf", "domain": "pm1", "n": 2, "A": [0, 1]}',
        "shape.json": '{"kind": "rbm", "domain": "pm1", "m": 2, "p": 1, '
                      '"W": [[1], [2]], "a": [0], "b": [0]}',
        "null.json": '{"kind": "rbm", "domain": "01", "m": 1, "p": 1, '
                     '"W": [[1]], "a": [null], "b": [0]}',
        # np.array(..., dtype=float) would parse the strings and upcast the
        # booleans, and the command would exit 0
        "str.json": '{"kind": "mrf", "domain": "pm1", "n": 2, "A": [["0", "1.5"], [0, 0]]}',
        "bool.json": '{"kind": "mrf", "domain": "pm1", "n": 2, "A": [[0, 1], [true, false]]}',
        "mixed.json": '{"kind": "rbm", "domain": "pm1", "m": 2, "p": 1, '
                      '"W": [[true, 0.5], [0, 0]], "a": [0, 0], "b": [0, 0]}',
        # a JSON integer past the float range, which float() cannot convert
        "huge.json": '{"kind": "mrf", "domain": "pm1", "n": 1, "A": [[1' + "0" * 400 + ']]}',
        # finite entries whose sum overflows: brute reported an infinite
        # best_score, rrr a NaN objective, and exact log Z exited 1
        "overflow.json": '{"kind": "mrf", "domain": "pm1", "n": 2, '
                         '"A": [[0, 1e308], [1e308, 0]]}',
        "overflow-rbm.json": '{"kind": "rbm", "domain": "pm1", "m": 2, "p": 1, '
                             '"W": [[1e308], [1e308]], "a": [0, 0], "b": [0]}',
    }
    capsys.readouterr()
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        assert run("map", "--instance", path, "--methods", "rrr", "--seed", 0,
                   "--out", out) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("relaxround: bad instance:") and err.count("\n") == 1
    assert not out.exists()


def test_map_hard_ordering_over_seeds(tmp_path):
    inst = gen_instance(tmp_path, kind="hard", m=6, p=6, seed=21,
                        pairs=3, couple=50.0, bias=5.0)
    ag_scores, combo_scores = [], []
    for seed in range(20):
        out = tmp_path / f"map{seed}.json"
        assert run("map", "--instance", inst, "--methods", "ag,rrr-ag",
                   "--seed", seed, "--out", out, "--sweeps", 240,
                   "--chains", 8) == 0
        doc = json.loads(out.read_text())
        ag_scores.append(doc["methods"]["ag"]["best_score"])
        combo_scores.append(doc["methods"]["rrr-ag"]["best_score"])
    assert np.median(combo_scores) >= np.median(ag_scores)


def test_one_relaxation_per_command(tmp_path, monkeypatch):
    # a map that runs ag beside other methods solves in its forked lane, so
    # the count is kept in a file that both processes append to
    calls = tmp_path / "solves.txt"
    solve = cli.solve_lrp

    def counting_solve(*args, **kwargs):
        with open(calls, "a") as fh:
            fh.write("solve\n")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_lrp", counting_solve)
    inst = gen_instance(tmp_path, seed=24)
    out = tmp_path / "r.json"
    for argv, want in [
        (["map", "--methods", "rrr,ag,rrr-ag", "--samples", 100, "--sweeps", 80], 1),
        (["map", "--methods", "ag,brute", "--sweeps", 80], 0),
        (["logz", "--methods", "exact,ais", "--num-temps", 20, "--num-runs", 5], 0),
        (["logz", "--methods", "rrr-low,rrr-is", "--samples", 200], 1),
    ]:
        calls.write_text("")
        assert run(*argv, "--instance", inst, "--seed", 7, "--out", out) == 0
        assert calls.read_text().count("solve\n") == want, argv
        if argv[2] == "rrr,ag,rrr-ag":
            doc = json.loads(out.read_text())
            rrr, combo = doc["methods"]["rrr"], doc["methods"]["rrr-ag"]
            for key in ("relaxation_objective", "relaxation_iterations"):
                assert rrr[key] == combo[key]


def test_rrr_is_builds_the_support_once(tmp_path, monkeypatch):
    # logz's rrr-is entry takes the sampled estimate, the exact-support
    # value and the support size from one pass over the support
    calls = {"build_px_k2": 0, "enumerate_support_k2": 0}

    def counting(name):
        inner = getattr(partition, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(partition, name, counting(name))
    inst = gen_instance(tmp_path, seed=25)
    out = tmp_path / "r.json"
    assert run("logz", "--instance", inst, "--methods", "rrr-is", "--samples",
               200, "--seed", 7, "--out", out) == 0
    assert calls == {"build_px_k2": 1, "enumerate_support_k2": 1}


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
)
def test_written_files_honour_the_umask(tmp_path, umask, mode):
    # reports and instances get the mode open(path, "w") gives a new file
    old = os.umask(umask)
    try:
        inst = gen_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run("map", "--instance", inst, "--methods", "ag", "--sweeps", 5,
                   "--seed", 0, "--out", out) == 0
    finally:
        os.umask(old)
    assert (inst.stat().st_mode & 0o777) == mode
    assert (out.stat().st_mode & 0o777) == mode


# A child interpreter in which any import of scipy fails; it runs each argv
# given as JSON through the CLI and prints the exit codes.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from relaxround.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_commands_run_without_scipy(tmp_path):
    # the runtime needs numpy alone: with scipy unimportable, every command
    # exits 0 and writes the bytes of the same command run in this process
    inst = str(tmp_path / "gen.json")
    commands = {
        "gen": ["gen", "--kind", "random", "--m", "5", "--p", "4", "--seed", "3"],
        "map": ["map", "--instance", inst, "--methods", "rrr,ag,rrr-ag,brute",
                "--seed", "1", "--samples", "200", "--sweeps", "80"],
        "logz": ["logz", "--instance", inst, "--methods", "exact,ais,rrr-low,rrr-is",
                 "--seed", "1", "--samples", "500", "--num-temps", "50",
                 "--num-runs", "10"],
    }
    for name, argv in commands.items():
        assert main(argv + ["--out", str(tmp_path / f"{name}.json")]) == 0
    bare = [argv + ["--out", str(tmp_path / f"bare-{name}.json")]
            for name, argv in commands.items()]
    src = str(Path(relaxround.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(bare)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0]
    for name in commands:
        assert ((tmp_path / f"bare-{name}.json").read_bytes()
                == (tmp_path / f"{name}.json").read_bytes()), name


# ------------------------------------------------------------------ logz


def test_logz_zero_rbm_exact_and_ais(tmp_path):
    inst = tmp_path / "zero.json"
    zero = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    write_atomic(inst, dumps_instance(zero))
    out = tmp_path / "logz.json"
    assert run("logz", "--instance", inst, "--methods", "exact,ais",
               "--seed", 4, "--out", out, "--num-temps", 50,
               "--num-runs", 10) == 0
    doc = json.loads(out.read_text())
    want = 5 * math.log(2.0)
    assert abs(doc["methods"]["exact"]["log_z"] - want) <= 1e-9
    assert abs(doc["methods"]["ais"]["log_z"] - want) <= 1e-9


def test_logz_bounds_hold(tmp_path):
    inst = gen_instance(tmp_path, m=5, p=4, seed=17)
    out = tmp_path / "logz.json"
    assert run("logz", "--instance", inst, "--methods",
               "exact,ais,rrr-low,rrr-is", "--seed", 6, "--out", out,
               "--samples", 3000, "--num-temps", 200, "--num-runs", 30) == 0
    doc = json.loads(out.read_text())
    exact = doc["methods"]["exact"]["log_z"]
    assert doc["methods"]["rrr-low"]["log_z"] <= exact + 1e-9
    assert doc["methods"]["rrr-is"]["log_z_exact_support"] <= exact + 1e-9
    assert doc["methods"]["rrr-low"]["distinct"] >= 1
    assert doc["methods"]["rrr-is"]["support_size"] >= 2


def test_logz_random_s_shape_pattern(tmp_path):
    # tall-thin instance: the importance lower bound sits below the truth
    # while the annealed estimate lands closest to it
    inst = gen_instance(tmp_path, "rs.json", m=20, p=15, seed=77)
    out = tmp_path / "logz.json"
    assert run("logz", "--instance", inst, "--methods", "exact,ais,rrr-low",
               "--seed", 8, "--out", out) == 0
    doc = json.loads(out.read_text())
    exact = doc["methods"]["exact"]["log_z"]
    ais = doc["methods"]["ais"]["log_z"]
    low = doc["methods"]["rrr-low"]["log_z"]
    assert low < exact
    assert abs(ais - exact) < abs(low - exact)
    assert abs(ais - exact) < 1.0


def test_logz_rejects_mrf_instance(tmp_path):
    inst = tmp_path / "mrf.json"
    write_atomic(inst, dumps_instance(MrfParams(np.zeros((3, 3)))))
    assert run("logz", "--instance", inst, "--methods", "exact",
               "--seed", 0, "--out", tmp_path / "x.json") == 1


def test_logz_rrr_is_requires_k2(tmp_path):
    inst = gen_instance(tmp_path, seed=18)
    assert run("logz", "--instance", inst, "--methods", "rrr-is",
               "--seed", 0, "--out", tmp_path / "x.json", "--k", 3) == 1


# ------------------------------------------------------- codes and bytes


def test_exit_codes(tmp_path, capsys):
    inst = gen_instance(tmp_path, m=20, p=12, seed=1)
    out = tmp_path / "r.json"
    # usage: unknown method, duplicate methods, missing required flag
    assert run("map", "--instance", inst, "--methods", "nope", "--seed", 0,
               "--out", out) == 1
    assert run("map", "--instance", inst, "--methods", "rrr,rrr", "--seed", 0,
               "--out", out) == 1
    assert run("map", "--seed", 0, "--out", out) == 1
    for flag in (["--chains", 0], ["--sweeps", 0], ["--sweeps", -5]):
        assert run("map", "--instance", inst, "--methods", "rrr-ag", "--seed", 0,
                   "--out", out, *flag) == 1, flag
    # usage: every count flag is checked whatever methods run, with one
    # error line and no report
    capsys.readouterr()
    for command, method, flag in (("map", "ag", ["--k", 0]),
                                  ("map", "ag", ["--samples", -5]),
                                  ("map", "ag", ["--restarts", 0]),
                                  ("logz", "exact", ["--num-temps", 1])):
        assert run(command, "--instance", inst, "--methods", method, "--seed", 0,
                   "--out", out, *flag) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith(f"relaxround: error: {flag[0]} must be >=")
        assert err.count("\n") == 1
    assert not out.exists()
    # usage: a negative seed, named by its flag
    for args in (["map", "--instance", inst, "--methods", "ag", "--seed", -1],
                 ["gen", "--kind", "random", "--m", 6, "--p", 5, "--seed", -3]):
        assert run(*args, "--out", out) == 1, args
        assert capsys.readouterr().err == "relaxround: error: --seed must be >= 0\n"
    assert not out.exists()
    # usage: the planted flags belong to --kind hard; left out, they take
    # gen_hard_rbm's defaults
    for flag in (["--pairs", 2], ["--couple", 50], ["--bias", 5]):
        assert run("gen", "--kind", "random", "--m", 7, "--p", 4, "--seed", 5,
                   "--out", out, *flag) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith(f"relaxround: error: {flag[0]}") and err.count("\n") == 1
    assert not out.exists()
    hard = gen_instance(tmp_path, "hard.json", kind="hard", m=7, p=4, seed=5)
    assert hard.read_text() == dumps_instance(gen_hard_rbm(7, 4, 3, 5000.0, 500.0, 5))
    # input format: missing file, malformed json
    assert run("map", "--instance", tmp_path / "absent.json", "--methods",
               "rrr", "--seed", 0, "--out", out) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":')
    assert run("map", "--instance", bad, "--methods", "rrr", "--seed", 0,
               "--out", out) == 2
    # input format: a directory, a file that is not UTF-8
    assert run("map", "--instance", tmp_path, "--methods", "rrr", "--seed", 0,
               "--out", out) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "rbm\xe9"}')
    assert run("map", "--instance", latin1, "--methods", "rrr", "--seed", 0,
               "--out", out) == 2
    # input format: a path below a regular file, a name longer than the
    # file system allows; each ends in one error line
    capsys.readouterr()
    for unreadable in (inst / "x", tmp_path / ("a" * 300)):
        assert run("map", "--instance", unreadable, "--methods", "rrr",
                   "--seed", 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("relaxround: bad instance: cannot read")
        assert err.count("\n") == 1
    # usage: an output path that names a directory or sits in a missing one
    # ends in one error line, and leaves no temporary file behind
    capsys.readouterr()
    for bad_out in (tmp_path, tmp_path / "missing" / "r.json"):
        for argv in (["map", "--instance", inst, "--methods", "rrr", "--seed", 0],
                     ["gen", "--kind", "random", "--m", 3, "--p", 2]):
            assert run(*argv, "--out", bad_out) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"relaxround: error: cannot write {bad_out}")
            assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.tmp"))
    # cap: embedded n = 33 for brute force, m = 30 visible for exact logz
    assert run("map", "--instance", inst, "--methods", "brute", "--seed", 0,
               "--out", out) == 3
    wide = gen_instance(tmp_path, "wide.json", m=30, p=2, seed=2)
    assert run("logz", "--instance", wide, "--methods", "exact", "--seed", 0,
               "--out", out) == 3


def test_map_reports_byte_identical(tmp_path):
    inst = gen_instance(tmp_path, seed=19)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (o1, o2):
        assert run("map", "--instance", inst, "--methods",
                   "rrr,ag,rrr-ag,brute", "--seed", 33, "--out", out) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_map_lanes_forked_and_inline_agree(tmp_path, monkeypatch):
    # ag's chain runs in the caller and every other method in one forked
    # child; the report is the same, in JSON and CSV, and no child is left
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    rng = np.random.default_rng(35)
    rbm01, mrf = tmp_path / "rbm01.json", tmp_path / "mrf.json"
    write_atomic(rbm01, dumps_instance(RbmParams(
        rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=3), Domain.ZERO_ONE)))
    write_atomic(mrf, dumps_instance(MrfParams(rng.normal(size=(7, 7)))))
    hard = gen_instance(tmp_path, "hard.json", kind="hard", m=7, p=4, seed=5)
    for inst in (rbm01, mrf, hard):
        for methods in ("rrr,ag,rrr-ag,brute", "ag,brute", "ag,rrr-ag"):
            for fmt in ("json", "csv"):
                reports = []
                for lanes in (True, False):
                    monkeypatch.setattr(partition, "_FORK", lanes)
                    forks.clear()
                    out = tmp_path / f"r.{fmt}"
                    assert run("map", "--instance", inst, "--methods", methods,
                               "--format", fmt, "--samples", 200, "--sweeps", 80,
                               "--seed", 8, "--out", out) == 0
                    assert len(forks) == lanes
                    no_child_left()
                    reports.append(out.read_bytes())
                assert reports[0] == reports[1], (inst.name, methods, fmt)


def test_map_forks_only_beside_ag(tmp_path, monkeypatch):
    # ag alone, and a map without ag, runs in this process; so does a map
    # started beside a second Python thread, with the forked report
    inst = gen_instance(tmp_path, seed=36)
    out = tmp_path / "r.json"
    argv = ["map", "--instance", inst, "--samples", 200, "--sweeps", 80,
            "--seed", 9, "--out", out]
    assert run(*argv, "--methods", "ag,rrr-ag") == 0
    forked = out.read_bytes()

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for methods in ("ag", "rrr", "rrr,rrr-ag,brute"):
        assert run(*argv, "--methods", methods) == 0, methods
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert run(*argv, "--methods", "ag,rrr-ag") == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert out.read_bytes() == forked


def test_map_lane_errors_cross_unchanged(tmp_path, monkeypatch, capsys):
    # a usage error and a cap error raised in the forked lane end the
    # command with their exit code and one stderr line, as inline
    inst = gen_instance(tmp_path, seed=38)
    wide = gen_instance(tmp_path, "wide.json", m=20, p=12, seed=1)
    out = tmp_path / "r.json"
    capsys.readouterr()
    for lanes in (True, False):
        monkeypatch.setattr(partition, "_FORK", lanes)
        for argv, code, line in (
            (["--instance", inst, "--methods", "rrr,ag", "--k", 99], 1,
             "relaxround: error: width k=99 exceeds n=10\n"),
            (["--instance", wide, "--methods", "ag,brute"], 3,
             "relaxround: cap exceeded: n=33 exceeds enumeration cap 24\n"),
        ):
            assert run("map", *argv, "--seed", 1, "--out", out) == code, lanes
            assert capsys.readouterr().err == line
            no_child_left()
    # an interrupt in the caller's chain kills and reaps the forked lane
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "annealed_gibbs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run("map", "--instance", inst, "--methods", "rrr,ag", "--seed", 1, "--out", out)
    no_child_left()
    assert not out.exists()


def test_map_lane_flushes_no_inherited_buffer(tmp_path, capfd):
    # the forked lane leaves by os._exit, so a line still in a buffer of
    # this process when it forks is written once, by the caller
    inst = gen_instance(tmp_path, seed=37)
    with os.fdopen(os.dup(1), "w", buffering=1 << 16) as buffered:
        buffered.write("before map\n")
        assert run("map", "--instance", inst, "--methods", "rrr,ag", "--seed", 1,
                   "--out", tmp_path / "r.json") == 0
    out, err = capfd.readouterr()
    assert out.count("before map") == 1
    assert err == ""


def test_logz_reports_byte_identical(tmp_path):
    inst = gen_instance(tmp_path, seed=20)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (o1, o2):
        assert run("logz", "--instance", inst, "--methods",
                   "exact,ais,rrr-low,rrr-is", "--seed", 34, "--out", out,
                   "--samples", 2000, "--num-temps", 100,
                   "--num-runs", 20) == 0
    assert o1.read_bytes() == o2.read_bytes()


@pytest.mark.parametrize("command,method", [
    ("map", "rrr"), ("logz", "rrr-low"), ("logz", "rrr-is"),
])
def test_sampling_commands_peak_memory_flat_in_n(tmp_path, command, method):
    # every method that reads --samples streams its draws: 16000 more draws
    # at n = 501 may raise the traced peak by the report's per-draw entries
    # (a float of `map`'s score trace and its JSON text), never by a row of
    # n entries per draw. The other methods do not read --samples; AIS
    # holds runs x (m + p) states whatever the sample count.
    inst = gen_instance(tmp_path, m=16, p=484, seed=31)
    out = tmp_path / "r.json"

    def traced(samples):
        argv = [command, "--instance", inst, "--methods", method, "--samples",
                samples, "--restarts", 1, "--seed", 1, "--out", out]
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(100)  # first-call allocations stay out of the comparison
    low, high = traced(4000), traced(20_000)
    assert high - low <= 16_000 * 200, (low, high)


def test_csv_formats(tmp_path):
    # the CSV report projects the JSON one: a row per method entry, in the
    # JSON order, whose values parse back to the JSON values
    inst = gen_instance(tmp_path, seed=22)
    cases = (
        ("map", "rrr,ag,brute", ("best_score", "cost_sweep_equivalents"), ()),
        ("logz", "exact,ais,rrr-low,rrr-is", ("log_z",),
         ("--samples", 500, "--num-temps", 100, "--num-runs", 10)),
    )
    for command, methods, columns, extra in cases:
        out = {}
        for fmt in ("json", "csv"):
            out[fmt] = tmp_path / f"{command}.{fmt}"
            assert run(command, "--instance", inst, "--methods", methods,
                       "--seed", 9, "--out", out[fmt], "--format", fmt,
                       *extra) == 0
        doc = json.loads(out["json"].read_text())
        assert list(doc["methods"]) == methods.split(",")
        want = []
        for name, entry in doc["methods"].items():
            want.append([name] + [entry[col] for col in columns])
            if name == "rrr-is":
                want.append(["rrr-is-exact-support", entry["log_z_exact_support"]])
        lines = out["csv"].read_text().split("\n")
        assert lines.pop() == ""
        assert lines[0] == ",".join(("method",) + columns)
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [entry[0] for entry in want]
        for row, entry in zip(rows, want):
            assert [json.loads(value) for value in row[1:]] == entry[1:]


# ---------------------------------------------------------------- surface


def test_public_surface():
    # every export is a deliberate edit of this list
    assert sorted(relaxround.__all__) == [
        "BRUTE_FORCE_CAP", "Budget", "CapExceededError",
        "ChainState", "Domain", "Embedding", "EstimateReport",
        "InstanceFormatError", "LrpOptions", "MrfParams", "RbmParams",
        "RelaxedSolution", "RoundingDistributionK2", "ais_logz",
        "annealed_gibbs", "brute_force_map", "build_px_k2",
        "check_assignment", "domain_values", "dumps_instance", "embed",
        "enumerate_support_k2", "exact_logz_mrf", "exact_logz_rbm",
        "gen_hard_rbm", "iter_corner_blocks", "load_instance",
        "loads_instance", "px_query", "rbm_score", "rrr_ag", "rrr_is",
        "rrr_low", "rrr_map_sample", "score", "score_batch", "solve_lrp",
    ]
    for name in relaxround.__all__:
        assert hasattr(relaxround, name), name
    gone = ("rrr_is_exact", "round_once", "dump_instance",
            "block_gibbs_rbm_sweep", "BRUTE_LOGZ_CAP", "lrp_objective",
            "_px_query_batch", "AnnealSchedule", "_site_probability",
            "_field_error", "SampleBatch", "UsageError", "gen_random_rbm",
            "_tempered_block_sweep")
    for module in (relaxround, cli, gibbs, instances, models, partition,
                   relaxation, rounding):
        for name in gone:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
