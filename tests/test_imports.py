"""Lazy loading: `import qzeta` loads no submodule, and each CLI process
loads only the modules its subcommand runs.  Every test starts a fresh
interpreter, since this process has long since loaded everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

ALL = ['DirichletCharacter', 'LogScalar', 'MonomialTestFunction',
       'PadicNumber', 'QPolynomial', 'RationalFunction', 'SeriesEvalConfig',
       'UnityRoot', 'VerificationReport', 'XPolynomial', 'analytic',
       'characters', 'classical_bernoulli', 'closed_form_verify',
       'distribution_check', 'enumerate_characters',
       'eval_log_scalar_complex', 'eval_log_scalar_padic', 'exact',
       'gen_function_identity_check',
       'generalized_q_bernoulli', 'generalized_q_bernoulli_exact',
       'l_interpolation_verify', 'padic', 'padic_exp',
       'padic_generalized_verify', 'padic_log', 'padic_pow',
       'principal_character', 'q_bernoulli_number',
       'q_bernoulli_polynomial', 'q_bernoulli_table',
       'q_hurwitz_zeta', 'q_lfunction', 'q_volkenborn_sum', 'q_zeta',
       'qbernoulli', 'report', 'series', 'shift_identity_verify',
       'unit_group_generators', 'witt_verify',
       'zeta_interpolation_verify']


def _python(script, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded():
    return ("sorted(m for m in sys.modules if m == 'qzeta' "
            "or m.startswith('qzeta.'))")


def test_import_qzeta_loads_no_submodule():
    doc = _python(f"import json, sys, qzeta; print(json.dumps({_loaded()}))")
    assert doc == ["qzeta"]


def test_public_names_and_star_import():
    doc = _python(
        "import json, types, qzeta\n"
        "from qzeta import *\n"
        "names = dict(globals())\n"
        "print(json.dumps({'all': sorted(qzeta.__all__),\n"
        "  'bound': sorted(n for n in qzeta.__all__ if n in names),\n"
        "  'padic': qzeta.padic.__name__,\n"
        "  'module': isinstance(qzeta.padic, types.ModuleType),\n"
        "  'same': qzeta.witt_verify is qzeta.padic.witt_verify,\n"
        "  'dir': sorted(set(qzeta.__all__) - set(dir(qzeta)))}))")
    assert doc["all"] == ALL
    assert doc["bound"] == ALL
    assert doc["padic"] == "qzeta.padic" and doc["module"] and doc["same"]
    assert doc["dir"] == []


def test_unknown_name_is_attribute_error():
    doc = _python("import json, qzeta\n"
                  "try:\n    qzeta.no_such_name\n"
                  "except AttributeError as e:\n    print(json.dumps(str(e)))")
    assert "no_such_name" in doc


BASE = ["qzeta", "qzeta._base", "qzeta.cli"]
TABLES = BASE + ["qzeta.exact", "qzeta.qbernoulli"]
MODULES = {  # the qzeta modules each kind of subcommand loads
    "base": BASE,
    "tables": TABLES,
    "complex": BASE + ["qzeta.analytic"],
    "padic": TABLES + ["qzeta.padic"],
    "interp": TABLES + ["qzeta.analytic"],
}
# and besides: qzeta.report for every verify target, and qzeta.characters
# for the subcommands and targets that take a character, and no others
TAKE_A_CHARACTER = {"characters", "generalized", "lfunction", "twisted",
                    "interp-l"}


def _expected(argv, kind):
    words = set(argv.split()[:2])
    return sorted(MODULES[kind] + ["qzeta.report"] * ("verify" in words)
                  + ["qzeta.characters"] * bool(words & TAKE_A_CHARACTER))


_MAIN = f"""
import contextlib, io, json, sys
import qzeta.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = qzeta.cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "out": out.getvalue(),
                  "modules": {_loaded()},
                  "dataclasses": "dataclasses" in sys.modules,
                  "fractions": "fractions" in sys.modules,
                  "csv": "csv" in sys.modules}}))
"""


@pytest.mark.parametrize("argv,kind", [
    ("characters --modulus 12", "base"),
    ("bernoulli --h 1 --n 4", "tables"),
    ("bernoulli --h 1 --n 4 --q 0.5", "tables"),
    ("polynomial --h 2 --n 3", "tables"),
    ("generalized --modulus 4 --char-index 1 --h 1 --n 3 --q 0.5", "tables"),
    ("zeta --h 1 --q 0.5 --s 2", "complex"),
    ("lfunction --modulus 4 --char-index 1 --h 1 --q 0.5 --s 2", "complex"),
    ("verify genfunction --h 2 --n 4", "tables"),
    ("verify distribution --h 2 --n 3 --m 2", "tables"),
    ("verify witt --levels 3:4", "padic"),
    ("verify shift --levels 3", "padic"),
    ("verify closedform --levels 3", "padic"),
    ("verify twisted --levels 3", "padic"),
    ("verify interp-zeta --q 0.5 --n 2", "interp"),
    ("verify interp-l --q 0.5 --n 2", "interp"),
])
def test_subcommand_loads_only_its_modules(argv, kind):
    doc = _python(_MAIN, *argv.split())
    assert doc["code"] == 0
    assert doc["modules"] == _expected(argv, kind)
    assert not doc["dataclasses"]
    assert not doc["csv"]


@pytest.mark.parametrize("argv,code,modules,fractions", [
    # a bad --p is refused before any p-adic, exact or character code loads
    ("verify witt --p 4 --levels 3:5", 2, BASE, False),
    # no rational is parsed and no character taken
    ("zeta --h 1 --q 0.5 --s 2", 0, MODULES["complex"], False),
    # a table builds no report
    ("bernoulli --h 1 --n 4", 0, TABLES, True),
])
def test_subcommand_skips_what_it_does_not_run(argv, code, modules,
                                               fractions):
    doc = _python(_MAIN, *argv.split())
    assert doc["code"] == code
    assert doc["modules"] == sorted(modules)
    assert doc["fractions"] == fractions


def test_csv_output_loads_csv():
    doc = _python(_MAIN, "characters", "--modulus", "3", "--format", "csv")
    assert doc["code"] == 0 and doc["csv"]


_RAISE = """
import contextlib, importlib, io, json, sys
import qzeta.cli
mod, cls = sys.argv[1].rsplit(".", 1)

def run(args):
    # the module of the class is loaded only by the code that raises it
    raise getattr(importlib.import_module(mod), cls)("boom")

qzeta.cli._run = run
with contextlib.redirect_stderr(io.StringIO()) as err:
    try:
        code = qzeta.cli.main(["characters", "--modulus", "3"])
    except Exception as e:
        code = type(e).__name__
print(json.dumps({"code": code, "err": err.getvalue()}))
"""


@pytest.mark.parametrize("cls,code", [
    ("qzeta.cli.UsageError", 2),
    ("qzeta.analytic.PoleAt1", 2),
    ("qzeta.exact.DomainError", 2),
    ("builtins.ValueError", 2),
    ("qzeta.analytic.SeriesDivergence", 3),
    ("qzeta.analytic.TruncationFailure", 3),
    ("qzeta.padic.PadicError", 3),
    ("qzeta.padic.PadicDomainError", 3),
    ("qzeta.padic.PrecisionExhausted", 3),
    ("qzeta.exact.ExactError", 3),
    ("qzeta.exact.PoleError", 3),
    ("builtins.ZeroDivisionError", 3),
    ("builtins.OverflowError", 3),
    ("builtins.RuntimeError", "RuntimeError"),
    ("builtins.ArithmeticError", 3),
])
def test_error_class_exit_code(cls, code):
    doc = _python(_RAISE, cls)
    assert doc["code"] == code
    if isinstance(code, int):
        assert doc["err"] == "error: boom\n"


def _value_cases():
    from fractions import Fraction

    from qzeta.analytic import SeriesEvalConfig
    from qzeta.characters import DirichletCharacter, UnityRoot
    from qzeta.exact import LogScalar, XPolynomial
    from qzeta.padic import MonomialTestFunction, PadicNumber
    from qzeta.qbernoulli import QBernoulliTable
    from qzeta.report import VerificationReport

    q = PadicNumber.from_fraction(5, Fraction(6), 20)
    one = (LogScalar(1),)
    # (positional, the same by keyword, a different value, a field)
    return {
        "DirichletCharacter": (DirichletCharacter(5, (1,)),
                               DirichletCharacter(modulus=5, exponents=(1,)),
                               DirichletCharacter(5, (2,)), "exponents"),
        "XPolynomial": (XPolynomial([1, 2]), XPolynomial(coeffs=[1, 2]),
                        XPolynomial([1]), "coeffs"),
        "UnityRoot": (UnityRoot(Fraction(1, 4)),
                      UnityRoot(exponent=Fraction(1, 4)), UnityRoot(None),
                      "exponent"),
        "SeriesEvalConfig": (SeriesEvalConfig(1e-12, 10 ** 7),
                             SeriesEvalConfig(tol=1e-12, max_terms=10 ** 7),
                             SeriesEvalConfig(max_terms=5), "tol"),
        "QBernoulliTable": (QBernoulliTable(1, 0, one),
                            QBernoulliTable(h=1, max_n=0, values=one),
                            QBernoulliTable(2, 0, one), "values"),
        "MonomialTestFunction": (MonomialTestFunction(2, 1, q),
                                 MonomialTestFunction(n=2, h=1, q=q),
                                 MonomialTestFunction(3, 1, q), "n"),
        "VerificationReport": (
            VerificationReport("witt", {"p": 5}, (("N=3", 4),), True,
                               ((3, 4),)),
            VerificationReport(identity="witt", params={"p": 5},
                               witnesses=(("N=3", 4),), passed=True,
                               levels=((3, 4),)),
            VerificationReport("witt", {"p": 5}, (("N=3", 4),), True),
            "passed"),
    }


@pytest.mark.parametrize("name", ["UnityRoot", "SeriesEvalConfig",
                                  "QBernoulliTable", "MonomialTestFunction",
                                  "VerificationReport", "DirichletCharacter",
                                  "XPolynomial"])
def test_value_class_without_dataclasses(name):
    # plain __slots__ classes keep the frozen dataclass contract: value
    # equality, hashing and no assignment
    a, b, c, field = _value_cases()[name]
    assert a == b and not a != b
    assert a != c
    assert a != (getattr(a, field),)
    if name == "VerificationReport":
        with pytest.raises(TypeError):      # params is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    assert a == b
    assert repr(a).startswith(f"{name}(")


def test_value_class_defaults_and_validation():
    from qzeta.analytic import SeriesEvalConfig
    from qzeta.padic import MonomialTestFunction
    from qzeta.report import VerificationReport

    assert SeriesEvalConfig() == SeriesEvalConfig(1e-12, 10 ** 7)
    assert VerificationReport("x", {}, (), True).levels is None
    with pytest.raises(ValueError, match="n must be >= 0"):
        MonomialTestFunction(-1, 1, None)


def _frozen_cases():
    from fractions import Fraction

    from qzeta.analytic import SeriesEvalConfig
    from qzeta.characters import DirichletCharacter, UnityRoot
    from qzeta.exact import (LogScalar, QPolynomial, RationalFunction,
                             XPolynomial)
    from qzeta.padic import MonomialTestFunction, PadicNumber
    from qzeta.qbernoulli import QBernoulliTable
    from qzeta.report import VerificationReport

    q = PadicNumber.from_fraction(5, Fraction(6), 20)
    rf = RationalFunction([0, 2], [1, -1])
    ls = LogScalar(1, rf)
    zero, one = (f"RationalFunction(QPolynomial({c}), QPolynomial(1))"
                 for c in (0, 1))
    rf_repr = "RationalFunction(QPolynomial(-2*q^1), QPolynomial(-1 + 1*q^1))"
    ls_repr = f"LogScalar({one}, {rf_repr})"
    # each value with its repr before the classes shared one base
    return {
        "DirichletCharacter": (DirichletCharacter(5, (1,)),
                               "DirichletCharacter(mod 5, exponents (1,))"),
        "LogScalar": (ls, ls_repr),
        "MonomialTestFunction": (
            MonomialTestFunction(2, 1, q),
            "MonomialTestFunction(n=2, h=1, q=6*5^0 + O(5^20))"),
        "PadicNumber": (q, "6*5^0 + O(5^20)"),
        "QBernoulliTable": (
            QBernoulliTable(1, 0, (ls,)),
            f"QBernoulliTable(h=1, max_n=0, values=({ls_repr},))"),
        "QPolynomial": (QPolynomial([1, Fraction(1, 2), 0, -3]),
                        "QPolynomial(1 + 1/2*q^1 + -3*q^3)"),
        "RationalFunction": (rf, rf_repr),
        "SeriesEvalConfig": (
            SeriesEvalConfig(),
            "SeriesEvalConfig(tol=1e-12, max_terms=10000000)"),
        "UnityRoot": (UnityRoot(Fraction(1, 4)),
                      "UnityRoot(exponent=Fraction(1, 4))"),
        "VerificationReport": (
            VerificationReport("witt", {"p": 5}, (("N=3", Fraction(1, 5)),),
                               True, ((3, 4),)),
            "VerificationReport(identity='witt', params={'p': 5}, "
            "witnesses=(('N=3', Fraction(1, 5)),), passed=True, "
            "levels=((3, 4),))"),
        "XPolynomial": (XPolynomial([0, 1]),
                        f"XPolynomial([LogScalar({zero}, {zero}), "
                        f"LogScalar({one}, {zero})])"),
    }


@pytest.mark.parametrize("name", sorted(_frozen_cases()))
def test_frozen_value_class(name):
    from qzeta._base import _Frozen

    value, text = _frozen_cases()[name]
    assert type(value).__name__ == name and isinstance(value, _Frozen)
    assert not hasattr(value, "__dict__")       # the base keeps __slots__ = ()
    assert repr(value) == text
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.extra = 1


def test_frozen_cases_cover_every_subclass():
    from qzeta._base import _Frozen

    _frozen_cases()                             # loads every module
    assert sorted(c.__name__ for c in _Frozen.__subclasses__()) == \
        sorted(_frozen_cases())


def test_padic_number_equality_is_identity():
    from qzeta.padic import PadicNumber

    a, b = (PadicNumber.from_fraction(5, 6, 20) for _ in range(2))
    assert a == a and a != b
    assert len({a, b}) == 2
