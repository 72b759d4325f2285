import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

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


def test_one_parser_serves_calls_back_to_back(capsys):
    code, out = run(capsys, "normalize", "--json", "xm * xp")
    assert code == 0 and json.loads(out)["terms"]
    code, out = run(capsys, "lpow", "x0", "1")
    assert code == 0 and out.startswith("[0] ")
    code, out = run(capsys, "normalize", "xm * xp")   # --json did not stick
    assert code == 0 and "xi+ * xi-" in out and not out.startswith("{")
    with pytest.raises(SystemExit) as err:
        cli.main(["lpow", "x0"])
    assert err.value.code == 2
    assert "required: n" in capsys.readouterr().err


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


def test_closed_pipe_exits_without_traceback():
    # the JSON is about 250 kB, far more than a pipe holds, so the writes
    # after the reader closes its end fail
    src = os.path.dirname(os.path.dirname(qmink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qmink.cli", "solve",
                             "massive", "--degree", "20", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.read(10) == b'{"kind": "'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_engine_commands_do_not_import_sympy_or_dataclasses():
    # their denominators are products of Phi_d(q^(1/2)), which trial
    # division factors, so sympy's factor_list is never needed; and the
    # records of qmink need no dataclasses, whose import pulls in inspect
    # and ast and costs every command start-up time
    code = "\n".join([
        "import sys",
        "from qmink import cli",
        "for argv in (['solve', 'massive', '--degree', '8', '--verify'],",
        "             ['lpow', 'x0', '5'],",
        "             ['normalize', '(x0+xm)^4/(q+1)']):",
        "    assert cli.main(argv) == 0, argv",
        "print([m for m in ('sympy', 'dataclasses', 'inspect')",
        "       if m in sys.modules])"])
    src = os.path.dirname(os.path.dirname(qmink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


_GEN_TOKENS = ("x0", "xm", "xp", "x3", "x30", "xsq", "xip", "xim", "x+", "x-",
               "xi+", "xi-")
_OTHER_TOKENS = ("q", "i", "r", "m", "k", "+", "-", "*", "/", "(", ")",
                 "0", "1", "2", "3")


@st.composite
def _token_texts(draw):
    """At most 40 tokens, joined by spaces so that every number is one digit.
    At most four generators and one ^ keep every draw fast: with two ^ a
    draw such as ((x3+xm+xp)^3)^3 raises a sum to the 9th power, and with
    more generators a cube of a product of sums takes seconds."""
    tokens = draw(st.lists(st.sampled_from(_OTHER_TOKENS), max_size=35))
    extra = draw(st.lists(st.sampled_from(_GEN_TOKENS), max_size=4))
    extra += draw(st.lists(st.just("^"), max_size=1))
    for token in extra:
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return " ".join(tokens)


@given(_token_texts())
@settings(max_examples=300, deadline=None)
def test_normalize_fuzz_exits_0_or_2_without_traceback(text):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        # "--" keeps a text that starts with "-" from reading as an option
        code = cli.main(["normalize", "--", text])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


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


def test_failing_calculus_check_keeps_its_input(capsys, monkeypatch):
    from qmink import algebra as al, derivatives as dv, verify as vf
    bad = al.x0_element() * al.monomial(d=1)
    assert any(el == bad for el in vf.basis_monomials(2))
    oracle = dv.grad_oracle
    shift = dv.Gradient.of_elements((al.one(),) + (al.zero(),) * 3)
    monkeypatch.setattr(dv, "grad_oracle",
                        lambda el: oracle(el) + shift if el == bad
                        else oracle(el))
    reports = {r.name: r for r in vf.calculus(2)}
    report = reports["closed gradient = oracle (degree <= 2)"]
    assert not report.ok and report.residual == bad
    code, out = run(capsys, "verify", "calculus", "--max-degree", "2")
    assert code == 1
    assert f"FAIL closed gradient = oracle (degree <= 2): {bad!r}\n" in out


def test_verify_json_records_and_timings(capsys):
    code, out = run(capsys, "verify", "structure", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and set(data["seconds"]) == {"structure"}
    assert all(set(r) == {"name", "ok", "degrees_checked", "first_failure"}
               for r in data["results"])


# sha256 of the printed output.  A change that alters printed output on
# purpose updates the digest and says why.
@pytest.mark.parametrize("argv, digest", [
    (["solve", "massive", "--degree", "8", "--verify", "--json"],
     "26cb2aa12e78d728d0f56178bbf5306b448dc600bb7dde45700afd242e62a1dc"),
    (["solve", "massless", "--param", "2/3", "--degree", "12", "--verify",
      "--json"],
     "c26a04b949626d38c7ccd9806546c93c1a3211c7237cbcfd1ac0aeb2da2b7eac"),
    (["lpow", "x30", "5", "--json"],
     "815a76396d4299abfb526b92023fab3bf3d17ca610dd6f3f7edfc4f316316174"),
    # a Cayley power: Localized matrix products over multi-term entries
    (["lpow", "x0", "7", "--json"],
     "8d6c03f6aa8c1d1aaf1c2cfd2e0c09b9b93e4a8f1f1351cf2c481da7b7312364"),
    (["derive", "x0^2*xm*xp + m/(q+1)*x3^2", "--json"],
     "a5c5365bdabb260b91b80abef2abdcae681d0abf3a69b3d19f9918b587115430"),
    (["normalize", "m/(q+1)*(x0+xm+xp)^5 + i*r*x3"],
     "293586f13574efa00a73ee2415851205bf19726ab15a918958b03ddcad8912cc"),
    # denominators in m and k, reduced over their registered factors
    (["normalize", "(m+q)/(m*q+q^2)*x0 + 1/(m*(q+1))*xm"
      " + ((k+1)^2)/(k^2+2*k+1)*xp"],
     "d1f2eaa24f9a148d41c69e09feda47079b11c54ffd8ea45034968d2f104681c3"),
    # deep sums of q-factorial denominators, added over their lcm
    (["solve", "massless", "--degree", "16", "--verify"],
     "c8e069aa3356c37747914fe3e9ec16b30b8f41542fb9daf0f7be969ea8c2489d"),
    (["solve", "massive", "--degree", "12", "--verify", "--json"],
     "456bc69e02d02f9e7a3433286d4e3f7774f5b2509e3bac376e7efd91430017ea"),
    (["solve", "massive", "--degree", "20", "--verify", "--json"],
     "18be37a19cad3d01215c966bd9ccc4e36f684c0bd5c940e44590d23fe35ded28"),
    # powers of sums over the registered denominator factors m, m + k and
    # q + 2
    (["normalize", "(x0/(m+k) + xm + xp)^5"],
     "aba174b064b1e55ad04f0711c3a3d16ae9fa7902c8a3fefb6dfeaea634808215"),
    (["normalize", "(x0/m + xm/(m+k) + xp/(q+2))^5"],
     "3cd19a1d5f6a7f8173ae1ab81b4118e1ea6312221bc7611fc5e7b23b07f32555"),
    # every component keeps a delta^1 denominator
    (["derive", "xip*xp"],
     "13415743b615478f1054a04595c3de0fc421a6005cd1828ce72d6cab00572572"),
    (["derive", "--json", "xip*xp"],
     "7be6fd189d0e5eee1c1bed232a3fc4f7cd8fee972f386b8236e01e09547aa3db"),
    # a Jackson step in every exponent slot; every component keeps delta^1
    (["derive", "r*xi+^2*xi-*x30^2*x- + i*xi-*x+^3"],
     "5aa7cfc699c0b3914b92c01a19a2b4a6491614bab0c062ad2e1ffbcfc26e7324"),
    # a deep massive state as text, whose denominators are printed dense
    (["solve", "massive", "--degree", "24", "--verify"],
     "10c4771b935d25ac163ccf0083459d4b15348bc507543bbeb5c3d77c7bf80659"),
    # q-binomial coefficients of up to 96 bits, summed in s alone
    (["normalize", "(x0+xm)^64"],
     "5deefa681b67097ad4afba58dc2b18991370efb1bbe63550ee3eb1fd3ebfc7c5"),
], ids=["massive", "massless", "lpow", "lpow-x0", "derive", "normalize",
        "normalize-mk", "massless-16", "massive-12", "massive-20",
        "normalize-mk-5", "normalize-mixed-5", "derive-delta",
        "derive-delta-json", "derive-every-slot", "massive-24",
        "normalize-binomial-64"])
def test_printed_output_is_unchanged(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
