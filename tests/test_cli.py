import json
import os
import re
import subprocess
import sys

import pytest

import qmink
from qmink import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_normalize(capsys):
    code, out = run(capsys, "normalize", "xm * xp")
    assert code == 0
    assert "xi+ * xi-" in out


def test_normalize_json_round_trip(capsys):
    code, out = run(capsys, "normalize", "--json", "x0^2 + q*x3")
    assert code == 0
    data = json.loads(out)
    assert data["terms"]


def test_derive_power_rule(capsys):
    code, out = run(capsys, "derive", "x30^3")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["-"] == "0" and lines["+"] == "0"
    assert "x30^2" in lines["3"]
    assert "q^4 + q^2 + 1" in lines["3"]      # [[3]]
    assert lines["0"].startswith("(-")


def test_derive_json(capsys):
    code, out = run(capsys, "derive", "--json", "xsq")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"0", "-", "+", "3"}
    assert all(v["delta_power"] == 0 for v in data.values())


def test_parse_error_exit_code(capsys):
    assert cli.main(["normalize", "x0^-1"]) == 2
    assert cli.main(["derive", "(x0"]) == 2
    assert cli.main(["normalize", "0^-1"]) == 2
    assert cli.main(["normalize", "(q-q)^-1"]) == 2
    assert cli.main(["solve", "massive", "--param", "0^-1"]) == 2
    assert "division by zero" in capsys.readouterr().err


def test_truncated_input_exit_code(capsys):
    assert cli.main(["normalize", "x0 * (xm"]) == 2
    assert "unexpected end of input" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["(" * 250 + "x0" + ")" * 250,
                                  "x0+" + "-" * 2000 + "x0"])
def test_deep_nesting_exits_2_without_traceback(text):
    src = os.path.dirname(os.path.dirname(qmink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qmink.cli", "normalize",
                           text], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nesting deeper than" in proc.stderr


def test_nesting_at_the_bound_normalizes(capsys):
    n = cli.sf.MAX_NESTING
    _, want = run(capsys, "normalize", "x0")
    for text in ("(" * n + "x0" + ")" * n, "0+" + "-" * n + "x0",
                 "(-" * (n // 2) + "x0" + ")" * (n // 2)):
        assert run(capsys, "normalize", text) == (0, want)
    # depth counts open groups, not all groups seen
    assert run(capsys, "normalize", "(x0)" + "+(x0)-(-x0)" * n)[0] == 0
    for text in ("(" * (n + 1) + "x0" + ")" * (n + 1),
                 "0+" + "-" * (n + 1) + "x0"):
        assert cli.main(["normalize", text]) == 2
    assert "nesting deeper than" in capsys.readouterr().err


def test_size_bound_exit_code(capsys):
    top = cli.sf.MAX_INPUT_DEGREE
    for argv in (["normalize", "xp^100000"],
                 ["lpow", "x0", str(top + 1)],
                 ["lpow", "x0", "-1"],
                 ["solve", "massive", "--degree", "100000"],
                 ["verify", "calculus", "--max-degree", str(top + 1)]):
        assert cli.main(argv) == 2, argv
        assert str(top) in capsys.readouterr().err


@pytest.mark.parametrize("kind, degree", [("massive", 10), ("massless", 12)])
def test_solve_json_reads_back(capsys, kind, degree):
    code, out = run(capsys, "solve", kind, "--degree", str(degree), "--json")
    assert code == 0
    slices = json.loads(out)["slices"]
    top = max(int(e) for e in re.findall(r"q\^-?(\d+)", out))
    assert top > cli.sf.MAX_INPUT_DEGREE
    for sl in slices:
        back = cli.sf.element_from_json(json.dumps(sl))
        assert json.loads(cli.sf.element_to_json(back)) == sl


def test_lpow(capsys):
    code, out = run(capsys, "lpow", "x30", "5")
    assert code == 0
    assert "x30^5" in out
    code, out = run(capsys, "lpow", "--json", "x0", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 and len(data["entries"]) == 4


def test_char_check(capsys):
    code, out = run(capsys, "char-check")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_structure(capsys):
    code, out = run(capsys, "verify", "structure")
    assert code == 0
    assert "FAIL" not in out


def test_verify_calculus_small_degree(capsys):
    code, out = run(capsys, "verify", "calculus", "--max-degree", "2")
    assert code == 0
    assert "FAIL" not in out


def test_verify_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QMINK_MAX_DEGREE", "2")
    code, out = run(capsys, "verify", "calculus")
    assert code == 0
    assert "degree <= 2" in out


def test_solve_massless(capsys):
    code, out = run(capsys, "solve", "massless", "--degree", "4", "--verify")
    assert code == 0
    assert "pass through degree 3" in out


def test_solve_massive_json(capsys):
    code, out = run(capsys, "solve", "massive", "--json", "--degree", "3",
                    "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 3
    assert len(data["slices"]) == 4
    assert all(r["ok"] for r in data["verification"])


def test_solve_with_numeric_param(capsys):
    code, _ = run(capsys, "solve", "massless", "--param", "0",
                  "--degree", "3", "--verify")
    assert code == 0
