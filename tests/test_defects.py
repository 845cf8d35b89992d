"""The known defects, one strict xfail per row of ROADMAP's table of defects
that still stand.

Each test asserts the true value, or the identity, at the precision the
pasted reference carries; the references are not recomputed here.  When a
change mends a row, its test XPASSes and the suite fails: the change then
removes the mark.  `raises=AssertionError` makes any other outcome, such as
a new refusal, an error rather than an xfail."""

import json

import pytest

from qzeta.analytic import (l_interpolation_verify, q_hurwitz_zeta,
                            zeta_interpolation_verify)
from qzeta.characters import enumerate_characters
from qzeta.cli import EXIT_OK, main
from qzeta.exact import eval_log_scalar_complex
from qzeta.qbernoulli import q_bernoulli_number


def _defect(row):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=row)


def _cli(argv, capsys):
    """The JSON document that `qzeta ARGV` prints; the run must exit 0."""
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK, code
    return json.loads(out)


def _close(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want)


@_defect("bernoulli --h 1 --n 6 --q 0.9 prints B_6 = -3.2488; true 0.0236249")
def test_bernoulli_h1_n6_q09(capsys):
    _close(_cli("bernoulli --h 1 --n 6 --q 0.9", capsys)[6]["re"],
           0.0236249, 1e-5)


@_defect("bernoulli --h 1 --n 6 --q 0.99 prints B_6 = 4.9e14; true 0.0238078")
def test_bernoulli_h1_n6_q099(capsys):
    _close(_cli("bernoulli --h 1 --n 6 --q 0.99", capsys)[6]["re"],
           0.0238078, 1e-5)


@_defect("B_30^(1) at q = 0.99 (float route) is -6.4e40; "
         "true 6.00817612653588e8")
def test_float_b30_h1_q099():
    _close(eval_log_scalar_complex(q_bernoulli_number(1, 30), 0.99).real,
           6.00817612653588e8, 1e-12)


@_defect("B_8^(-1) at q = 0.8 (float route) is 42.35; true -0.0314732")
def test_float_b8_hm1_q08():
    _close(eval_log_scalar_complex(q_bernoulli_number(-1, 8), 0.8).real,
           -0.0314732, 1e-5)


@_defect("bernoulli --h 1 --n 20 --q 0.5 prints -1048576, exit 0; "
         "true 313.035155315323")
def test_bernoulli_h1_n20_q05(capsys):
    _close(_cli("bernoulli --h 1 --n 20 --q 0.5", capsys)[20]["re"],
           313.035155315323, 1e-12)


@_defect("bernoulli --h 1 --n 40 (and --n 200) --q 0.5 exits 3 on a pole of "
         "the expanded denominator at q = 0.5; the value is finite")
@pytest.mark.parametrize("n,want", [(40, 3103384625965639.4165),
                                    (200, 1.0766466519662063679e215)],
                         ids=["n40", "n200"])
def test_bernoulli_h1_q05_false_pole(n, want, capsys):
    _close(_cli(f"bernoulli --h 1 --n {n} --q 0.5", capsys)[n]["re"],
           want, 1e-12)


@_defect("B_16^(1) at q = 0.3 (float route) is 4.41528; "
         "true 5.20442561911488")
def test_float_b16_h1_q03():
    _close(eval_log_scalar_complex(q_bernoulli_number(1, 16), 0.3).real,
           5.20442561911488, 1e-12)


def test_zeta_h1_q095_sm10(capsys):
    _close(_cli("zeta --h 1 --q 0.95 --s -10", capsys)["re"],
           -0.00123988594763236, 1e-12)


@_defect("q_hurwitz_zeta(1, 0.95, -10.5, 1) is 0.0104724283312678, bound "
         "1.5e-13, 5.4e-12 relative off; true 0.0104724283313246")
def test_hurwitz_q095_sm10_5():
    _close(q_hurwitz_zeta(1, 0.95, -10.5, 1), 0.0104724283313246, 1e-12)


def test_hurwitz_q099_sm20():
    _close(q_hurwitz_zeta(1, 0.99, -20, 1), 2.99270177308291, 1e-12)


def test_hurwitz_q09_sm5():
    _close(q_hurwitz_zeta(1, 0.9, -5, 1), -0.00437498117357, 1e-10)


def test_hurwitz_q08_complex_s():
    _close(q_hurwitz_zeta(1, 0.8, -8 + 2j, 0.5),
           -0.0415755383 - 0.0278391642j, 1e-8)


@_defect("verify interp-zeta --h 1 --q 0.95 --n 11 --x 1 FAILs at 3.1e19; "
         "the identity holds")
def test_interp_zeta_q095_n11(capsys):
    assert _cli("verify interp-zeta --h 1 --q 0.95 --n 11 --x 1",
                capsys)["pass"] is True


@_defect("verify interp-zeta --h 1 --q 0.5 --n 20 --x 1 FAILs at 6.1e4; "
         "the identity holds")
def test_interp_zeta_q05_n20(capsys):
    assert _cli("verify interp-zeta --h 1 --q 0.5 --n 20 --x 1",
                capsys)["pass"] is True


@_defect("zeta_interpolation_verify(1, 0.9, 6, 1.0) FAILs at 0.54; "
         "the identity holds")
def test_zeta_interpolation_q09_n6():
    assert zeta_interpolation_verify(1, 0.9, 6, 1.0).passed


@_defect("l_interpolation_verify(1, 0.95, 6, chi) FAILs for both chi mod 4: "
         "0.075 for the principal chi, 1.75e-7 for the other; the identity "
         "holds")
@pytest.mark.parametrize("index", [0, 1], ids=["principal", "other"])
def test_l_interpolation_q095_n6(index):
    chi = enumerate_characters(4)[index]
    assert l_interpolation_verify(1, 0.95, 6, chi).passed


@_defect("verify interp-l --h 1 --q 0.305185 --n 12 --modulus 4 "
         "--char-index 1 FAILs at 1.7e-7, exit 1; the identity holds")
def test_interp_l_q0305185_n12(capsys):
    assert _cli("verify interp-l --h 1 --q 0.305185 --n 12 --modulus 4 "
                "--char-index 1", capsys)["pass"] is True
