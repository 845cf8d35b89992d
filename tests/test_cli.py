"""Command-line interface: output formats and exit codes."""

import csv
import io
import json
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from qzeta.cli import EXIT_FAIL, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

DATA = Path(__file__).parent / "data"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bernoulli_json(capsys):
    code, out, _ = run(["bernoulli", "--h", "1", "--n", "2"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["n"] for row in doc] == [0, 1, 2]
    assert "rat" in doc[0]["value"] and "log" in doc[0]["value"]


def test_bernoulli_numeric_evaluation(capsys):
    code, out, _ = run(["bernoulli", "--h", "1", "--n", "2", "--q", "0.5"],
                       capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc[2]["re"] - 0.1588830833596715) < 1e-12


def test_polynomial_output(capsys):
    code, out, _ = run(["polynomial", "--h", "2", "--n", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["x_power"] for row in doc] == [0, 1, 2, 3]


def test_characters_csv(capsys):
    code, out, _ = run(["characters", "--modulus", "8", "--format", "csv"],
                       capsys)
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert sorted(int(r["conductor"]) for r in rows) == [1, 4, 8, 8]


def test_zeta_value_and_bound(capsys):
    code, out, _ = run(["zeta", "--h", "1", "--q", "0.5", "--s", "3.0"],
                       capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["certified_tail_bound"] < 1e-10


def test_lfunction_value(capsys):
    code, out, _ = run(["lfunction", "--h", "1", "--q", "0.4", "--s", "2.0",
                        "--modulus", "4", "--char-index", "1"], capsys)
    assert code == EXIT_OK
    json.loads(out)


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(["verify", "witt", "--p", "5", "--h", "1", "--n", "2",
                        "--levels", "3:4"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True
    # the one genuinely failing interpolation cell
    code, out, _ = run(["verify", "interp-l", "--h", "1", "--q", "0.4",
                        "--n", "1", "--modulus", "1", "--char-index", "0"],
                       capsys)
    assert code == EXIT_FAIL
    assert json.loads(out)["pass"] is False


def test_verify_distribution_and_genfunction(capsys):
    for target, extra in [("distribution", ["--n", "4", "--m", "3"]),
                          ("genfunction", ["--n", "6"])]:
        code, out, _ = run(["verify", target, "--h", "2"] + extra, capsys)
        assert code == EXIT_OK, target


def test_usage_errors_exit_2(capsys):
    assert run(["bernoulli", "--h", "1", "--n", "-3"], capsys)[0] == EXIT_USAGE
    assert run(["zeta", "--h", "1", "--q", "1.5", "--s", "2"],
               capsys)[0] == EXIT_USAGE
    assert run(["zeta", "--h", "1", "--q", "0.5", "--s", "1.0"],
               capsys)[0] == EXIT_USAGE
    assert run(["nonsense"], capsys)[0] == EXIT_USAGE


def test_numeric_failure_exit_3(capsys):
    # a tolerance the truncated series cannot certify within max terms
    code, _, err = run(["zeta", "--h", "1", "--q", "0.99999", "--s", "2.0",
                        "--tol", "1e-13", "--max-terms", "10"], capsys)
    assert code == EXIT_NUMERIC


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["bernoulli", "--h", "1", "--n", "1",
                        "--out", str(path)], capsys)
    assert code == EXIT_OK
    assert out == ""
    json.loads(path.read_text())


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    # an error of the file system is bad input, not a failing identity
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(["characters", "--modulus", "3", "--out", str(path)],
                         capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("argv,text", [
    (["characters", "--modulus", "3"],
     "conductor: 1\nexponents:\n  0\nindex: 0\nmodulus: 3\nvalues:\n"
     "  0: 0\n  1: e(2*pi*i*0)\n  2: e(2*pi*i*0)\n"
     "conductor: 3\nexponents:\n  1\nindex: 1\nmodulus: 3\nvalues:\n"
     "  0: 0\n  1: e(2*pi*i*0)\n  2: e(2*pi*i*1/2)\n"),
    (["verify", "witt", "--levels", "3:4"],
     "identity: witt\nlevels:\n  N: 3\n  valuation: 3\n  N: 4\n"
     "  valuation: 4\nparams:\n  h: 1\n  n: 1\n  p: 5\n  prec: 16\n"
     "  slack: 3\npass: True\nwitnesses:\n  case: N=3\n  discrepancy: 3\n"
     "  case: N=4\n  discrepancy: 4\n"),
], ids=["characters", "witt"])
def test_text_format_nests_key_value_lines(argv, text, capsys):
    # a dict's keys sorted, one per line; a nested value indented below its
    # key, and a list's items at the indent of the list
    code, out, _ = run(argv + ["--format", "text"], capsys)
    assert code == EXIT_OK
    assert out == text


@pytest.mark.parametrize("argv,msg", [
    (["verify", "witt", "--q", "abc"], "cannot parse rational 'abc'"),
    (["verify", "closedform", "--t", "1/0"], "cannot parse rational '1/0'"),
    (["generalized", "--modulus", "4", "--char-index", "5", "--h", "1",
      "--n", "2", "--q", "0.5"], "char index 5 out of range (modulus 4 has 2)"),
    (["verify", "interp-l", "--modulus", "4", "--char-index", "5",
      "--q", "0.5"], "char index 5 out of range (modulus 4 has 2)"),
], ids=["witt-q", "closedform-t", "generalized-char", "interp-l-char"])
def test_unparsable_rational_or_char_index_exits_2(argv, msg, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {msg}\n"


@pytest.mark.parametrize("argv", [
    ["--format", "csv", "characters", "--modulus", "3"],
    ["--out", "OUT", "characters", "--modulus", "3"],
], ids=["format", "out"])
def test_output_flag_before_subcommand_is_usage_error(argv, tmp_path,
                                                      capsys):
    # each flag belongs to the subcommand, whose default would overwrite
    # a value given before its name
    path = tmp_path / "report.json"
    argv = [str(path) if a == "OUT" else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert not path.exists()


def test_deterministic_output(capsys):
    a = run(["verify", "witt", "--p", "5", "--h", "1", "--n", "1",
             "--levels", "3:4"], capsys)[1]
    b = run(["verify", "witt", "--p", "5", "--h", "1", "--n", "1",
             "--levels", "3:4"], capsys)[1]
    assert a == b


@pytest.mark.parametrize("argv,golden", [
    pytest.param(["bernoulli", "--h", "-3", "--n", "8"], "bernoulli_h-3_n8",
                 id="bernoulli-h-3-n8"),
    pytest.param(["bernoulli", "--h", "2", "--n", "12"], "bernoulli_h2_n12",
                 id="bernoulli-h2-n12"),
    pytest.param(["polynomial", "--h", "3", "--n", "5"], "polynomial_h3_n5",
                 id="polynomial-h3-n5"),
    pytest.param(["bernoulli", "--h", "2", "--n", "10", "--q", "0.5"],
                 "bernoulli_h2_n10_q0.5", id="bernoulli-h2-n10-q0.5"),
    pytest.param(["bernoulli", "--h", "-3", "--n", "12", "--q", "0.3+0.4j"],
                 "bernoulli_h-3_n12_q0.3+0.4j", id="bernoulli-h-3-n12-qcomplex"),
    pytest.param(["generalized", "--modulus", "5", "--char-index", "2",
                  "--h", "1", "--n", "6", "--q", "0.45"],
                 "generalized_m5_c2_h1_n6_q0.45", id="generalized-m5-c2"),
    pytest.param(["verify", "witt", "--p", "5", "--h", "2", "--n", "6",
                  "--levels", "3:9"], "witt_p5_h2_n6_levels3-9",
                 id="witt-p5-h2-n6"),
    pytest.param(["verify", "twisted", "--p", "5", "--modulus", "4",
                  "--char-index", "1", "--h", "1", "--n", "2",
                  "--levels", "3:5"], "twisted_p5_m4_c1_h1_n2_levels3-5",
                 id="twisted-p5-m4"),
    pytest.param(["zeta", "--h", "1", "--q", "0.5", "--s", "3"],
                 "zeta_h1_q0.5_s3", id="zeta-h1-q0.5-s3"),
    pytest.param(["lfunction", "--modulus", "4", "--char-index", "1",
                  "--h", "2", "--q=0.3+0.4j", "--s=-2.5+1j"],
                 "lfunction_m4_c1_h2_q0.3+0.4j_s-2.5+1j",
                 id="lfunction-m4-c1-h2-qcomplex"),
])
def test_exact_output_matches_golden(argv, golden, capsys):
    # pins the canonical form (lowest terms, monic denominator) and the
    # float bits of numeric evaluation
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out == (DATA / f"{golden}.json").read_text()


@pytest.mark.parametrize("argv,flag", [
    (["verify", "witt", "--p", "4", "--levels", "3:5"], "--p"),
    (["verify", "shift", "--p", "9", "--levels", "3"], "--p"),
    (["verify", "closedform", "--p", "6", "--levels", "3"], "--p"),
    (["verify", "closedform", "--p", "1", "--levels", "3"], "--p"),
    (["verify", "twisted", "--p", "1", "--levels", "3"], "--p"),
    (["verify", "witt", "--p", "5", "--levels", "5:3"], "--levels"),
    (["verify", "witt", "--p", "5", "--levels", "0:2"], "--levels"),
    (["verify", "shift", "--p", "5", "--levels", "0"], "--levels"),
    (["verify", "witt", "--levels", "abc"], "--levels"),
    (["verify", "witt", "--levels", "3:x"], "--levels"),
    # the complex targets have no default q
    (["verify", "interp-zeta", "--h", "1", "--n", "2"], "--q"),
    (["verify", "interp-l", "--h", "1", "--n", "2"], "--q"),
])
def test_bad_padic_input_exits_2(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv,msg", [
    (["zeta", "--h", "1", "--q", "0.5", "--s=-120"],
     "at s = (-120+0j), term k = 352\n"),
    (["lfunction", "--modulus", "4", "--char-index", "1", "--h", "1",
      "--q", "0.5", "--s=-300"], "at s = (-300+0j), term"),
    (["verify", "interp-zeta", "--h", "1", "--q", "0.5", "--n", "300"],
     "at s = (-299+0j), term"),
], ids=["zeta", "lfunction", "interp-zeta"])
def test_float_overflow_exits_3(argv, msg, capsys):
    # a value too large for floats is a numeric error, not a FAIL verdict,
    # and the message names the Lerch sum's s and term that overflowed
    code, out, err = run(argv, capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: float overflow in the Lerch sum ")
    assert msg in err
    assert "Traceback" not in err


@pytest.mark.parametrize("h", ["0", "-1"])
def test_nonpositive_h_diverges_exits_3(h, capsys):
    # |q^h| >= 1 exactly when h <= 0, and the message says so for h = 0 too
    code, out, err = run(["zeta", "--h", h, "--q", "0.5", "--s", "2"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert f"(h = {h}: h <= 0 is not analytically continued)" in err


@pytest.mark.parametrize("argv", [
    ["verify", "genfunction", "--h", "1", "--n", "3"],
    ["verify", "distribution", "--h", "1", "--n", "3", "--m", "2"],
], ids=["genfunction", "distribution"])
def test_levels_read_only_by_padic_targets(argv, capsys):
    # the exact targets have no levels, so even a bad --levels is unused
    code, out, _ = run(argv + ["--levels", "0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "witt", "--levels", "3:5"],
    ["verify", "shift", "--levels", "5"],
    ["verify", "closedform", "--levels", "5"],
    ["verify", "twisted", "--modulus", "3", "--levels", "3:5"],
], ids=["witt", "shift", "closedform", "twisted"])
def test_padic_defaults_at_p2_are_in_domain(argv, capsys):
    # 1 + p = 3 and t = p = 2 are outside the log and exp domains at p = 2
    code, out, _ = run(argv + ["--p", "2"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_twisted_default_modulus_at_p2(capsys):
    # the default modulus 4 is even; at p = 2 it defaults to 3
    code, out, _ = run(["verify", "twisted", "--p", "2", "--levels", "3:5"],
                       capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["params"]["d"] == 3


@pytest.mark.parametrize("argv,flag", [
    (["verify", "witt", "--p", "2", "--q", "3", "--levels", "3:5"], "--q 3"),
    (["verify", "shift", "--p", "5", "--q", "2", "--levels", "3"], "--q 2"),
    (["verify", "twisted", "--p", "5", "--modulus", "3", "--q", "3/2",
      "--levels", "3"], "--q 3/2"),
    (["verify", "closedform", "--p", "2", "--t", "2", "--levels", "3"],
     "--t 2"),
    (["verify", "closedform", "--p", "5", "--q", "3", "--levels", "3"],
     "--q 3"),
    (["verify", "twisted", "--p", "2", "--modulus", "4", "--levels", "3:5"],
     "--modulus 4"),
    (["verify", "twisted", "--p", "3", "--modulus", "3", "--levels", "3"],
     "--modulus 3"),
])
def test_padic_domain_error_names_flag(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert flag in err


def test_h0_witt_reads_no_log_q(capsys):
    # q^0 = 1, so a unit q outside the log domain is no domain error
    code, out, _ = run(["verify", "witt", "--p", "5", "--h", "0", "--q", "2",
                        "--levels", "3:5"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_h0_twisted_reads_no_log_q(capsys):
    # the twisted values at h = 0 have no log part
    code, out, _ = run(["verify", "twisted", "--p", "5", "--modulus", "3",
                        "--char-index", "1", "--h", "0", "--q", "3/2",
                        "--levels", "3:5"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "witt", "--p", "5", "--q", "1", "--h", "2", "--n", "4",
     "--levels", "3:6"],
    ["verify", "twisted", "--p", "5", "--q", "1", "--modulus", "4",
     "--char-index", "0", "--h", "1", "--n", "2", "--levels", "3:5"],
], ids=["witt", "twisted"])
def test_q1_target_is_the_classical_limit(argv, capsys):
    # at q = 1 both parts of the exact target have a pole (for a twisted
    # value, at the principal character; the others' poles cancel); the
    # level sums are the classical ones and tend to the q -> 1 limit, the
    # h = 0 value
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "shift", "--p", "5", "--n", "-1", "--levels", "3"],
    ["generalized", "--modulus", "4", "--char-index", "1", "--h", "1",
     "--n", "-1", "--q", "0.5"],
    ["bernoulli", "--h", "1", "--n", "-1"],
    ["polynomial", "--h", "2", "--n", "-1"],
    ["verify", "genfunction", "--h", "2", "--n", "-1"],
    ["verify", "distribution", "--h", "1", "--n", "-1", "--m", "3"],
    # a level range above the work bound: n is rejected before the sums
    ["verify", "twisted", "--p", "5", "--n", "-1", "--levels", "3:4000"],
    ["verify", "witt", "--p", "5", "--n", "-1", "--levels", "3:4000"],
], ids=["shift", "generalized", "bernoulli", "polynomial", "genfunction",
        "distribution", "twisted", "witt"])
def test_negative_n_exits_2(argv, capsys):
    # each entry point names n and rejects it before any work
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: n must be >= 0")


@pytest.mark.parametrize("argv", [
    ["--p", "5"],
    ["--p", "3", "--q", "4/7", "--h", "2", "--n", "4", "--levels", "2:7"],
    ["--p", "2", "--h", "-1", "--n", "3", "--precision", "8"],
], ids=["defaults", "p3", "p2"])
def test_witt_is_twisted_at_the_character_mod_1(argv, capsys):
    # B_{n,chi}^{(h)} at the one character mod 1 is B_n^{(h)}: the twisted
    # check there reads the same valuations and verdict as witt
    code, out, _ = run(["verify", "witt", *argv], capsys)
    code1, out1, _ = run(["verify", "twisted", "--modulus", "1",
                          "--char-index", "0", *argv], capsys)
    witt, twisted = json.loads(out), json.loads(out1)
    assert code == code1 == EXIT_OK
    assert twisted["levels"] == witt["levels"]
    assert twisted["pass"] is witt["pass"] is True


def test_runaway_level_range_exits_3_fast(capsys):
    # every p-adic target checks the work bound before it builds p^w or a
    # list of the levels (3:3000000 took seconds to hours, and 130 MB)
    # (shift sums no Mahler terms, and is held to its own bound)
    for argv, bound in ((["witt", "--levels", "3:4000"], "MAX_POWER_SUM_TERMS"),
                        (["witt", "--levels", "3:3000000"], "MAX_POWER_SUM_TERMS"),
                        (["shift", "--levels", "3:3000000"], "MAX_SHIFT_TERMS"),
                        (["closedform", "--levels", "3:3000000"],
                         "MAX_POWER_SUM_TERMS"),
                        (["twisted", "--levels", "3:3000000"],
                         "MAX_POWER_SUM_TERMS")):
        with deadline(1):
            code, out, err = run(["verify", *argv], capsys)
        assert code == EXIT_NUMERIC, argv
        assert out == ""
        assert bound in err


def test_runaway_shift_b_exits_3_fast(capsys):
    # the shift check loops over its b end terms, and checks their number
    # before the loop; b = 20000 took 173 s as b exact rational functions
    with deadline(1):
        code, out, err = run(["verify", "shift", "--b", "1000000000"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "MAX_SHIFT_TERMS" in err
    with deadline(1):
        code, out, _ = run(["verify", "shift", "--b", "20000"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_shift_bound_counts_the_work_it_runs(capsys):
    # shift runs b end terms, about w log-series terms and N log2 p
    # squarings mod p^w, and no Mahler terms: N = 200 at p = 5 passes, N =
    # 1112 is the largest level accepted there (about 0.3 s), and N = 1113
    # and N = 3000 (about 4.5 s unbounded) exit 3 at once
    for level in ("200", "1112"):
        with deadline(1):
            code, out, _ = run(["verify", "shift", "--p", "5",
                                "--levels", level], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["levels"] == [{"N": int(level),
                                              "valuation": int(level)}]
    for level in ("1113", "3000"):
        with deadline(1):
            code, out, err = run(["verify", "shift", "--p", "5",
                                  "--levels", level], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "MAX_SHIFT_TERMS" in err


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after `seconds`, so that a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_large_prime_p_is_fast(capsys):
    # primality by trial division up to sqrt(p) did not return here
    with deadline(1):
        code, out, _ = run(["verify", "witt", "--p", str(2 ** 61 - 1),
                            "--levels", "2:3"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_level_range_bound_scales_with_p(capsys):
    # p = 7 accepts 1:169; at p = 2^61 - 1 each Mahler term works on
    # 21,000-bit integers instead of 1,000-bit ones, and 1:18 is the largest
    # range accepted
    witt = ["verify", "witt", "--p", str(2 ** 61 - 1), "--h", "1", "--n", "6"]
    with deadline(1):
        code, out, _ = run([*witt, "--levels", "1:18"], capsys)
    assert code == EXIT_OK
    for levels in ("1:19", "1:169"):
        with deadline(2):
            code, out, err = run([*witt, "--levels", levels], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "MAX_POWER_SUM_TERMS" in err


@pytest.mark.parametrize("p,reason", [
    pytest.param((2 ** 31 - 1) ** 2, "not prime", id="mersenne31-squared"),
    pytest.param(2 ** 64 + 13, "2^64", id="above-2^64"),
])
def test_p_not_prime_or_too_large_exits_2(p, reason, capsys):
    with deadline(1):
        code, out, err = run(["verify", "witt", "--p", str(p),
                              "--levels", "2:3"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert reason in err


@pytest.mark.parametrize("target", ["witt", "shift", "closedform", "twisted"])
@pytest.mark.parametrize("flags", [
    pytest.param(["--precision", "0"], id="precision-0"),
    pytest.param(["--precision", "-5"], id="precision-negative"),
    pytest.param(["--slack", "-3"], id="slack-negative"),
])
def test_meaningless_precision_or_slack_exits_2(target, flags, capsys):
    code, out, err = run(["verify", target, "--levels", "3"] + flags, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flags[0].lstrip("-") in err


@pytest.mark.parametrize("argv,msg", [
    (["zeta", "--h", "1", "--q", "0.5", "--s", "nan"], "s = (nan+0j)"),
    (["zeta", "--h", "1", "--q", "0.5", "--s", "2", "--x", "nan"], "x = nan"),
    (["zeta", "--h", "1", "--q", "0.5", "--s", "2", "--x", "inf"], "x = inf"),
    (["zeta", "--h", "1", "--q", "0.5", "--s", "2", "--tol", "nan"], "tol"),
    (["zeta", "--h", "1", "--q", "0.5", "--s", "2", "--max-terms", "0"],
     "max_terms"),
    (["lfunction", "--modulus", "4", "--char-index", "1", "--h", "1",
      "--q", "0.5", "--s", "nan"], "s = (nan+0j)"),
    (["verify", "interp-zeta", "--h", "1", "--q", "0.5", "--n", "2",
      "--x", "nan"], "x = nan"),
    # only a trailing i is the imaginary unit, so "inf" keeps its i
    (["zeta", "--h", "1", "--q", "0.5", "--s", "inf"],
     "s = (inf+0j) is not finite"),
    # and 1+2i still parses: the error is about x
    (["zeta", "--h", "1", "--q", "0.5", "--s", "1+2i", "--x", "nan"],
     "x = nan"),
    # a NaN |q| passed both the q = 0 and the |q| >= 1 test
    (["bernoulli", "--h", "1", "--n", "2", "--q", "nan"], "need 0 < |q| < 1"),
    (["bernoulli", "--h", "1", "--n", "2", "--q=nan+1i"], "need 0 < |q| < 1"),
    # a verdict tol no error can meet made a FAIL of a holding identity
    (["verify", "interp-zeta", "--h", "1", "--q", "0.5", "--n", "2",
      "--tol", "nan"], "tol nan must be >= 0"),
    (["verify", "interp-zeta", "--h", "1", "--q", "0.5", "--n", "2",
      "--tol", "-1"], "tol -1.0 must be >= 0"),
    (["verify", "interp-l", "--h", "1", "--q", "0.5", "--n", "2",
      "--tol", "nan"], "tol nan must be >= 0"),
    (["verify", "interp-l", "--h", "1", "--q", "0.5", "--n", "2",
      "--tol", "-1"], "tol -1.0 must be >= 0"),
], ids=["s-nan", "x-nan", "x-inf", "tol-nan", "max-terms-0", "lfunction-s-nan",
        "interp-zeta-x-nan", "s-inf", "s-1+2i-x-nan", "bernoulli-q-nan",
        "bernoulli-q-nan+1i", "interp-zeta-tol-nan", "interp-zeta-tol-negative",
        "interp-l-tol-nan", "interp-l-tol-negative"])
def test_non_finite_input_exits_2_fast(argv, msg, capsys):
    # NaN fails every comparison, so no bound check stopped it short of
    # max_terms, and x = inf made every term and the tail bound 0
    with deadline(1):
        code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert msg in err


@pytest.mark.parametrize("N", [25, 30, 60])
def test_closedform_above_precision_passes(N, capsys):
    # the working precision covers N digits more than the default 16, so the
    # valuation no longer stops at 16 + 6 = 21 < N - slack
    code, out, _ = run(["verify", "closedform", "--levels", str(N)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["levels"] == [{"N": N, "valuation": N + 1}]


@pytest.mark.parametrize("argv,flag", [
    (["zeta", "--h", "1", "--q", "0.5", "--s", "-2+1i"], "--s"),
    (["zeta", "--h", "1", "--q", "-0.5+0.1i", "--s", "2"], "--q"),
    (["zeta", "--h", "1", "--q", "0.5", "--s", "-inf"], "--s"),
    (["lfunction", "--modulus", "4", "--char-index", "1", "--h", "2",
      "--q", "0.3+0.4j", "--s", "-2.5+1j"], "--s"),
    (["verify", "interp-zeta", "--h", "1", "--q", "-0.3+0.4i", "--n", "3"],
     "--q"),
], ids=["s", "q", "s-inf", "lfunction-s", "interp-zeta-q"])
def test_negative_complex_value_after_space(argv, flag, capsys):
    # argparse takes "-2+1i" for an option; the CLI reads it as the value
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == run(joined, capsys)
    assert code == (EXIT_USAGE if argv[i + 1] == "-inf" else EXIT_OK)
    assert "expected one argument" not in err


def test_flag_without_value_is_usage_error(capsys):
    code, out, err = run(["zeta", "--h", "1", "--q", "0.5", "--s", "--x", "1"],
                         capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "argument --s: expected one argument" in err
