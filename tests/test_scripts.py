"""Smoke tests of the command-line scripts under scripts/, run as programs."""
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from quermass import verify as vf

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_run_corpus_gate_writes_its_reports(tmp_path):
    out = tmp_path / "gate"
    proc = run_script("run_corpus_gate.py", "--flats", "20", "--max-dim", "2",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(out.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    docs = json.loads(out.with_suffix(".json").read_text())
    # the one corpus body of dimension <= 2 is ball-2d, at (k, j) = (1, 0)
    checks = ["lemma-rs", "thm-1-1", "cor-1-2", "thm-3-4", "thm-1-2"]
    assert [r["check_id"] for r in rows] == checks
    assert [d["check_id"] for d in docs] == checks
    assert all(r["body"] == "ball-2d" and r["verdict"] == "pass" for r in rows)
    assert all((r["n"], r["k"], r["j"], r["N"]) == ("2", "1", "0", "20") for r in rows)
    assert "verdicts: pass=5" in proc.stdout
    assert f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}" in proc.stdout


def test_constants_table_prints_every_triple(tmp_path):
    proc = run_script("constants_table.py", "--max-n", "3", "--samples", "200",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["n", "k", "j", "alpha", "gamma", "beta", "delta",
                                "c", "c_sigma", "c_prime"]
    rows = [line.split() for line in lines[2:]]
    assert [tuple(map(int, r[:3])) for r in rows] == [(2, 1, 0), (3, 1, 0),
                                                       (3, 1, 1), (3, 2, 0)]
    for n, k, j, alpha, gamma, beta, delta, c, c_sigma, c_prime in rows:
        n, k, j = int(n), int(k), int(j)
        assert float(alpha) == pytest.approx(vf.alpha_const(n, k, j), rel=1e-5)
        assert float(gamma) == pytest.approx(vf.gamma_cor12_const(n, k, j), rel=1e-5)
        assert float(beta) == pytest.approx(vf.beta_thm34_const(n, k, j), rel=1e-5)
        assert float(delta) == pytest.approx(vf.delta_const(n, k, j), rel=1e-5)
        assert 0.0 < float(c_prime) < float(c) and float(c_sigma) > 0.0
