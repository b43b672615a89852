"""End-to-end command-line tests: generation, MAP reports, log-Z reports,
exit codes, and byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxround
from relaxround import (
    Domain,
    MrfParams,
    RbmParams,
    dump_instance,
    load_instance,
    rbm_score,
)
from relaxround import cli, partition
from relaxround.cli import main


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
    dump_instance(back, out)
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
    dump_instance(m01, inst)
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
    dump_instance(rbm, inst)
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
    inst = gen_instance(tmp_path, seed=13)
    out = tmp_path / "map.json"
    assert run("map", "--instance", inst, "--methods", "rrr", "--seed", 1,
               "--out", out, "--samples", 50) == 0
    doc = json.loads(out.read_text())
    trace = doc["methods"]["rrr"]["score_trace"]
    assert len(trace) == 50
    assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == doc["methods"]["rrr"]["best_score"]


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
    calls = []
    solve = cli.solve_lrp

    def counting_solve(*args, **kwargs):
        calls.append(args)
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
        calls.clear()
        assert run(*argv, "--instance", inst, "--seed", 7, "--out", out) == 0
        assert len(calls) == want, argv
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
    dump_instance(RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2)), inst)
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
    dump_instance(MrfParams(np.zeros((3, 3))), inst)
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
    assert run("map", "--instance", inst, "--methods", "rrr-ag", "--seed", 0,
               "--out", out, "--chains", 0) == 1
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


def test_logz_reports_byte_identical(tmp_path):
    inst = gen_instance(tmp_path, seed=20)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (o1, o2):
        assert run("logz", "--instance", inst, "--methods",
                   "exact,ais,rrr-low,rrr-is", "--seed", 34, "--out", out,
                   "--samples", 2000, "--num-temps", 100,
                   "--num-runs", 20) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_csv_formats(tmp_path):
    inst = gen_instance(tmp_path, seed=22)
    out = tmp_path / "map.csv"
    assert run("map", "--instance", inst, "--methods", "rrr,brute",
               "--seed", 9, "--out", out, "--format", "csv") == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,best_score,cost_sweep_equivalents"
    assert len(lines) == 3

    out2 = tmp_path / "logz.csv"
    assert run("logz", "--instance", inst, "--methods", "exact,rrr-is",
               "--seed", 9, "--out", out2, "--format", "csv",
               "--samples", 500) == 0
    lines = out2.read_text().strip().split("\n")
    assert lines[0] == "method,log_z"
    assert lines[1].startswith("exact,")
    assert lines[2].startswith("rrr-is,")
    assert lines[3].startswith("rrr-is-exact-support,")
