"""Golden reports: seeded `map` and `logz` commands, rerun in process and
compared with the reports kept under tests/golden/.

Decision fields (assignments, winners, counts, strings) must match exactly,
and every float within 1e-9 relative (absolute below 1), so a change that
moves a report has to rewrite these files and shows in their diff. Exact
bytes are not asked for: another numpy or BLAS may round differently.

Rewrite the files from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from relaxround import Domain, MrfParams, RbmParams, dumps_instance
from relaxround.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
MAP_ALL = ["map", "--methods", "rrr,ag,rrr-ag,brute", "--seed", "1"]


def _instances(tmp):
    """Criterion 10's generated RBM (also the CI smoke step's {-1,+1} RBM),
    and the CI smoke step's {0,1} RBM, {0,1} MRF and {-1,+1} MRF (one
    site-by-site span), written to tmp."""
    paths = {name: tmp / f"{name}.json" for name in ("c10", "rbm01", "mrf01", "mrfpm")}
    assert cli_main(["gen", "--kind", "random", "--m", "6", "--p", "5",
                     "--seed", "12", "--out", str(paths["c10"])]) == 0
    g = np.random.default_rng(5)
    zo = Domain.ZERO_ONE
    models = {
        "rbm01": RbmParams(g.normal(size=(6, 5)), g.normal(size=6), g.normal(size=5), zo),
        "mrf01": MrfParams(g.normal(size=(9, 9)), zo),
        "mrfpm": MrfParams(g.normal(size=(9, 9))),
    }
    for name, model in models.items():
        paths[name].write_text(dumps_instance(model))
    return paths


def _reports(tmp):
    """(golden name, report) per command; the instance path is reduced to
    its file name."""
    paths = _instances(tmp)
    commands = {
        "c10-map": ("c10", ["map", "--methods", "rrr,ag,rrr-ag,brute", "--seed", "77"]),
        "c10-map-k3": ("c10", ["map", "--methods", "rrr,ag,rrr-ag", "--k", "3",
                               "--seed", "1"]),
        "c10-logz": ("c10", ["logz", "--methods", "exact,ais,rrr-low,rrr-is",
                             "--samples", "2000", "--num-temps", "100",
                             "--num-runs", "20", "--seed", "77"]),
        "rbm01-map": ("rbm01", MAP_ALL),
        "mrf01-map": ("mrf01", MAP_ALL),
        "mrfpm-map": ("mrfpm", MAP_ALL),
    }
    for name, (instance, argv) in commands.items():
        out = tmp / f"{name}.json"
        assert cli_main(argv + ["--instance", str(paths[instance]), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["instance"]["path"] = paths[instance].name
        yield name, doc


def _mismatches(want, got, where=""):
    """Where two reports differ beyond the rules in the module docstring."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-9) else [
            f"{where}: {want!r} != {got!r}"]
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(w, g, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {want!r} != {got!r}"]


def test_reports_match_the_goldens(tmp_path):
    for name, doc in _reports(tmp_path):
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        assert _mismatches(want, doc, name) == []


def test_mismatches_tell_decisions_from_rounding():
    want = {"winner": "ag", "best_assignment": [1, -1], "best_score": 12.5,
            "score_trace": [0.0, 12.5]}
    assert _mismatches(want, json.loads(json.dumps(want))) == []
    near = dict(want, best_score=12.5 * (1 + 1e-12), score_trace=[1e-12, 12.5])
    assert _mismatches(want, near) == []
    for field, value in [("winner", "rrr"), ("best_assignment", [1, 1]),
                         ("best_score", 12.5 * (1 + 1e-8)), ("score_trace", [0.0])]:
        assert len(_mismatches(want, dict(want, **{field: value}))) == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for name, doc in _reports(Path(tmp)):
            (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
