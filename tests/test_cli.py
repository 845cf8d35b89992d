"""Command-line interface: output formats and exit codes."""

import csv
import io
import json
import signal
import time
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
])
def test_bad_padic_input_exits_2(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err


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


@pytest.mark.parametrize("argv,flag", [
    (["verify", "witt", "--p", "2", "--q", "3", "--levels", "3:5"], "--q 3"),
    (["verify", "shift", "--p", "5", "--q", "2", "--levels", "3"], "--q 2"),
    (["verify", "twisted", "--p", "5", "--modulus", "3", "--q", "3/2",
      "--levels", "3"], "--q 3/2"),
    (["verify", "closedform", "--p", "2", "--t", "2", "--levels", "3"],
     "--t 2"),
    (["verify", "closedform", "--p", "5", "--q", "3", "--levels", "3"],
     "--q 3"),
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


def test_runaway_level_range_exits_3_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run(["verify", "witt", "--levels", "3:4000"], capsys)
    assert time.perf_counter() - t0 < 2
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "MAX_POWER_SUM_TERMS" in err


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
    # p = 7 accepts this range; at p = 2^61 - 1 each Mahler term works on
    # 21,000-bit integers instead of 1,000-bit ones
    with deadline(2):
        code, out, err = run(["verify", "witt", "--p", str(2 ** 61 - 1),
                              "--h", "1", "--n", "6", "--levels", "1:169"],
                             capsys)
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
