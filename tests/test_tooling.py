"""The benchmark's span tracer still finds every name it wraps in src/, and
the frozen-value contract and the number types' derived operators each stay
in one class."""

import ast
import functools
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SETUP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import TRACED, Tracer
"""

_EXACT = """
from qzeta.exact import RationalFunction
from qzeta.qbernoulli import distribution_check, gen_function_identity_check

x, y = RationalFunction(1, [-1, 1]), RationalFunction(1, [1, 1])
total, product = RationalFunction([0, 2], [-1, 0, 1]), RationalFunction(1, [-1, 0, 1])
tracer = Tracer()
tracer.install()
ok = distribution_check(2, 3, 2).passed and \\
    gen_function_identity_check(-3, 5).passed and \\
    x + y == total and x * y == product
tracer.close()
print(json.dumps({"ok": ok, "traced": list(TRACED),
                  "spans": tracer.summary()["spans"]}))
"""

_DIST = """
from qzeta import qbernoulli

tracer = Tracer()
tracer.install()
ok = qbernoulli.distribution_check(-2, 9, 5).passed
tracer.close()
print(json.dumps({"ok": ok, "spans": tracer.summary()["spans"]}))
"""

_L_INTERP = """
from qzeta.analytic import l_interpolation_verify
from qzeta.characters import enumerate_characters

tracer = Tracer()
tracer.install()
chi = enumerate_characters(5)[2]
ok = all(l_interpolation_verify(2, q, 4, chi).passed
         for q in (0.3, 0.6 + 0.2j, -0.85))
tracer.close()
summary = tracer.summary()
print(json.dumps({"ok": ok, "spans": summary["spans"],
                  "repeats": summary["repeats"]}))
"""

_PADIC = """
from fractions import Fraction
from qzeta import padic

tracer = Tracer()
tracer.install()
q = padic.PadicNumber.from_fraction(5, Fraction(6), 40)
f = padic.MonomialTestFunction(2, 1, q)
ok = padic.witt_verify(1, 2, q, [3, 4, 5], 12, 3).passed and \\
    padic.shift_identity_verify(f, 3, 4, 12, 3).passed
tracer.close()
print(json.dumps({"ok": ok, "spans": tracer.summary()["spans"]}))
"""

_WITT_TWISTED = """
from fractions import Fraction
from qzeta import padic
from qzeta.characters import enumerate_characters

q = padic.PadicNumber.from_fraction(5, Fraction(6), 40)
chi = next(c for c in enumerate_characters(3) if not c.is_principal())
tracer = Tracer()
tracer.install()
ok = padic.witt_verify(1, 2, q, [3, 4, 5], 12, 3).passed and \\
    padic.padic_generalized_verify(chi, 1, 2, q, [3, 4], 12, 3).passed
tracer.close()
print(json.dumps({"ok": ok, "spans": tracer.summary()["spans"]}))
"""

_PADIC_LOG_EXP = """
from fractions import Fraction
from qzeta.characters import enumerate_characters
from qzeta.padic import (PadicNumber, closed_form_verify,
                         padic_generalized_verify)

q = PadicNumber.from_fraction(5, Fraction(6), 40)
t = PadicNumber.from_fraction(5, Fraction(5), 40)
chi = next(c for c in enumerate_characters(3) if not c.is_principal())
tracer = Tracer()
tracer.install()
ok = CHECK.passed
tracer.close()
print(json.dumps({"ok": ok, "spans": tracer.summary()["spans"]}))
"""


_LERCH = """
from qzeta import analytic

tracer = Tracer()
tracer.install()
analytic.lerch_sum_with_bound(0.9, 2.5, 0.5, analytic.SeriesEvalConfig(1e-13))
tracer.close()
summary = tracer.summary()
print(json.dumps({"spans": summary["spans"],
                  "terms": summary["terms"]["analytic.lerch"]}))
"""


def _traced(script):
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP + script, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_span_tracer_installs_on_src():
    # Tracer.install() looks up each traced name (QPolynomial.gcd,
    # RationalFunction.__add__, rf_sum, ...) and raises if one is gone; the
    # two checks lift their terms without rational sums, so the script adds
    # and multiplies two rational functions itself to show the spans wrap
    doc = _traced(_EXACT)
    assert doc["ok"]
    spans = doc["spans"]
    assert spans["exact.rf_add"]["calls"] > 0
    assert spans["exact.rf_mul"]["calls"] > 0
    # neither check builds a truncated series any more
    assert "series.mul" in doc["traced"]
    assert not [name for name in spans if name.startswith("series.")]
    # denominators stay factored: no polynomial gcd on any arithmetic path
    assert "exact.poly_gcd" in doc["traced"]
    assert "exact.poly_gcd" not in spans


def test_span_tracer_sees_distribution_check():
    # the one-pass check still runs under its own span and reads B_n^(h)(x)
    # through q_bernoulli_polynomial, so qbernoulli.distribution.self_s
    # still measures it
    doc = _traced(_DIST)
    assert doc["ok"]
    spans = doc["spans"]
    assert spans["qbernoulli.distribution"]["calls"] == 1
    assert spans["qbernoulli.polynomial"]["calls"] == 1
    assert spans["qbernoulli.distribution"]["self_s"] > 0


def test_span_tracer_sees_cached_twisted_terms():
    # the (d, h, n) cache sits behind _twisted_terms, so the tracer still
    # counts one call per twisted value, and the key repeats at each new q
    doc = _traced(_L_INTERP)
    assert doc["ok"]
    assert doc["spans"]["qbernoulli.twisted"]["calls"] == 3
    assert doc["repeats"]["qbernoulli.twisted"] == [2, 1]


def test_span_tracer_sees_padic_target():
    # both verifiers evaluate their exact target through
    # eval_log_scalar_padic, which the bench times as padic.target with the
    # padic_log it calls: one of each per verifier, so shift reads log q
    # once for its b = 3 derivative terms; witt sums its levels inside its
    # own padic.witt span, without volkenborn_levels
    doc = _traced(_PADIC)
    assert doc["ok"]
    spans = doc["spans"]
    assert spans["padic.target"]["calls"] == 4
    assert "padic.volkenborn" not in spans
    assert spans["padic.witt"]["calls"] == 1


def test_span_tracer_attributes_witt_and_twisted_level_sums():
    # both checks call the one core directly, each inside its own span
    # (padic.witt, padic.verify_loops), so neither check's time moves
    # between layers and volkenborn_levels (padic.volkenborn) is not called
    doc = _traced(_WITT_TWISTED)
    assert doc["ok"]
    spans = doc["spans"]
    assert "padic.volkenborn" not in spans
    assert spans["padic.verify_loops"]["calls"] == 1
    assert spans["padic.witt"]["calls"] == 1


@pytest.mark.parametrize("check", [
    "closed_form_verify(1, t, q, 4, 12, 3)",
    "padic_generalized_verify(chi, 1, 2, q, [3, 4], 12, 3)",
], ids=["closedform", "twisted"])
def test_span_tracer_sees_padic_log_and_exp(check):
    # closed_form_verify takes exp t and log q, and the twisted check reads
    # its target through eval_log_scalar_padic and the padic_log it calls:
    # two padic.target calls each, now that log and exp return through
    # PadicNumber.from_int_mod
    doc = _traced(_PADIC_LOG_EXP.replace("CHECK", check))
    assert doc["ok"]
    assert doc["spans"]["padic.target"]["calls"] == 2


@functools.cache
def _traced_lerch():
    return _traced(_LERCH)


def _lerch_sums(max_terms):
    """lerch_sum_with_bound(0.9, 2.5, 0.5) at tol 1e-13 stops within
    max_terms."""
    from qzeta import analytic

    try:
        analytic.lerch_sum_with_bound(
            0.9, 2.5, 0.5, analytic.SeriesEvalConfig(1e-13, max_terms))
    except analytic.TruncationFailure:
        return False
    return True


def test_span_tracer_counts_lerch_terms():
    # lerch_sum_with_bound runs the one Lerch loop with the series at s - 1
    # stopped: one analytic.lerch call, which sums 183 terms, the least
    # max_terms that succeeds
    assert _traced_lerch()["spans"]["analytic.lerch"]["calls"] == 1
    assert _lerch_sums(183) and not _lerch_sums(182)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "perfbench/spans.py counts one Lerch term per math.log call it sees "
    "inside qzeta.analytic, a stand-in gone stale: the loop takes one power "
    "a term and no log, so analytic.lerch.terms reads 0 (ROADMAP item 20: "
    "counters, not names)"))
def test_span_tracer_counts_each_lerch_term():
    assert _traced_lerch()["terms"] == 183


def _result_line(ops_per_s, p90_ms, failed):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p90_ms": {"value": p90_ms, "unit": "ms"}}}


def test_bench_pairs_summary_of_canned_lines():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    pairs = [{"seed": 701 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": _result_line(par, p90, 0),
              "change": _result_line(chg, p90 - 5, f)}
             for i, (par, chg, p90, f) in enumerate([
                 (180.0, 350.0, 14.0, 0), (190.0, 170.0, 15.0, 0),
                 (185.0, 370.0, 13.0, 1), (200.0, 360.0, 16.0, 0)])]
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "op_p90_ms", "better": "lower", "bound": 0.25}]
    summary = bench_pairs.summarise(pairs, metrics)
    ops = summary["ops_per_s"]
    assert ops["parent_median"] == 187.5
    assert ops["change_median"] == 355.0
    # statistics.quantiles' default (exclusive) quartiles of 4 values
    assert ops["parent_iqr"] == pytest.approx(197.5 - 181.25)
    assert ops["change_iqr"] == pytest.approx(367.5 - 215.0)
    assert (ops["pairs_better"], ops["pairs"]) == (3, 4)
    # lower is better here: the change is 5 ms faster in every pair
    assert summary["op_p90_ms"]["pairs_better"] == 4
    assert summary["failed"] == {"parent": [0, 0, 0, 0],
                                 "change": [0, 0, 1, 0]}
    # 3 wins in 4 is too few to call better, and the median is not worse
    assert ops["verdict"] == "within bound"
    assert summary["op_p90_ms"]["verdict"] == "better"
    # the parent's ops_per_s spread (IQR 125 of median 225) exceeds the
    # bound and the change does not beat it run for run; op_p90_ms is 40 %
    # worse against a 25 % bound
    pairs = [{"parent": _result_line(par, p90, 0),
              "change": _result_line(chg, c90, 0)}
             for par, chg, p90, c90 in [(200.0, 190.0, 10.0, 14.0),
                                        (300.0, 280.0, 10.2, 14.1),
                                        (150.0, 160.0, 9.8, 13.9),
                                        (250.0, 240.0, 10.1, 14.2)]]
    summary = bench_pairs.summarise(pairs, metrics)
    assert summary["ops_per_s"]["verdict"] == "unresolved"
    assert summary["op_p90_ms"]["verdict"] == "worse"
    # a wide parent spread is resolved when every change run beats every
    # parent run
    assert bench_pairs.verdict([200, 300, 150, 250], [400, 420, 410, 405],
                               1, 0.25) == "better"


# method -> the one class in src/ that defines it: every immutable value
# class takes __setattr__ from one base, every number type takes its
# derived operators from one mixin, and division is the p-adic type's alone
_DEFINED_ONLY_IN = {
    "__setattr__": ("characters.py", "_Frozen"),
    "__sub__": ("exact.py", "_Ring"),
    "__rsub__": ("exact.py", "_Ring"),
    "__radd__": ("exact.py", "_Ring"),
    "__rmul__": ("exact.py", "_Ring"),
    "__truediv__": ("padic.py", "PadicNumber"),
    "__rtruediv__": ("padic.py", "PadicNumber"),
}


def _definitions(tree):
    """(name, owning class or None) of every def, and of every name bound
    by an assignment in a class body, such as `__rmul__ = __mul__`."""
    owner = {id(node): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, owner.get(id(node))
        elif isinstance(node, ast.Assign) and id(node) in owner:
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, owner[id(node)]


def test_setattr_defined_only_in_frozen_base():
    # one case per method; a table rather than parametrize, which would
    # rename this test
    found = {method: [] for method in _DEFINED_ONLY_IN}
    for path in sorted((ROOT / "src" / "qzeta").glob("*.py")):
        for name, cls in _definitions(ast.parse(path.read_text())):
            if name in found:
                found[name].append((path.name, cls))
    assert found == {m: [owner] for m, owner in _DEFINED_ONLY_IN.items()}


# the cyclotomic denominator format: a rational function's exponents and a
# polynomial's integer form, and the private constructors and lowering
# helpers that read them, are exact.py's alone; other modules go through
# the public classes and exact's _lift_all and _lower
_FORMAT_ATTRIBUTES = {"exps", "ints"}
_FORMAT_CALLS = {"_raw", "_lowest", "_lift"}


def test_denominator_format_is_read_only_in_exact():
    found = []
    for path in sorted((ROOT / "src" / "qzeta").glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # .exps and .ints as attributes: a local `exps` is no read
            if isinstance(node, ast.Attribute):
                names = {node.attr} & (_FORMAT_ATTRIBUTES | _FORMAT_CALLS)
            elif isinstance(node, ast.Name):
                names = {node.id} & _FORMAT_CALLS
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & _FORMAT_CALLS
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names]
    assert found == []


def test_every_error_class_has_an_exit_code_family():
    # the CLI exits 2 on a ValueError and 3 on an ArithmeticError; an error
    # class of neither family would escape as a traceback with exit 1, the
    # code of a failing identity
    outside = []
    for path in sorted((ROOT / "src" / "qzeta").glob("*.py")):
        mod = importlib.import_module(f"qzeta.{path.stem}")
        outside += [f"{path.stem}.{name}" for name, cls in vars(mod).items()
                    if isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == mod.__name__
                    and not issubclass(cls, (ValueError, ArithmeticError))]
    assert outside == []


# the bad inputs that argparse itself rejects; every other one parses and
# fails in the program's own checks
_ARGPARSE_REJECTS = {"verify nonsense", "nonsense",
                     "zeta --h 1 --q 0.5 --s --x 1",
                     "--format csv characters --modulus 3"}


def test_cli_parity_grid_parses():
    # every command of tools/parity.py's cli grid goes through the CLI's own
    # parser, as main() reads it, so a renamed flag or subcommand shows here
    # and not as a digest that changed for no visible reason; no process is
    # started
    from contextlib import redirect_stderr
    from io import StringIO

    from qzeta import cli

    spec = importlib.util.spec_from_file_location(
        "parity", ROOT / "tools" / "parity.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    commands = grid.GOLDEN + grid.VALID + grid.BAD
    assert len(commands) == len(set(commands)) == 75
    rejected = set()
    for argv in commands:
        try:
            with redirect_stderr(StringIO()):
                cli._build_parser().parse_args(
                    cli._attach_negative_values(argv.split()))
        except SystemExit as e:
            assert e.code == 2, argv
            rejected.add(argv)
    assert rejected == _ARGPARSE_REJECTS


def test_parity_records_are_what_the_digest_hashes(monkeypatch, capsys):
    # --records prints, one a line, the records whose digest the plain run
    # prints, so a `diff` of two trees' records lists what a changed digest
    # hides; a stub grid stands in for the real ones
    import hashlib

    spec = importlib.util.spec_from_file_location(
        "parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    recs = ["(0, 1, 10)", "ValueError: p = 4 is not prime"]
    monkeypatch.setitem(parity.GRIDS, "padic", lambda tree: iter(recs))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for argv in (["padic", str(ROOT)], ["padic", str(ROOT), "--records"]):
        monkeypatch.setattr(sys, "argv", ["parity.py", *argv])
        assert parity.main() == 0
    digest, *printed = capsys.readouterr().out.splitlines()
    assert printed == recs
    assert json.loads(digest) == {
        "n": 2, "sha256": hashlib.sha256(
            "".join(r + "\n" for r in recs).encode()).hexdigest()}


def test_op_kinds_runs_one_round_of_padic_levels():
    # tools/op_kinds.py imports the benchmark's op stream and runner, and
    # prints one row per op kind and a total: one round is 63 Witt ops and
    # 3 each of shift, closed form and twisted, none of which raise
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_kinds.py"), "padic-levels",
         "1", "1"], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["kind", "ops", "raised", "time_s", "share", "p50_ms",
                      "max_ms", "gc", "gc2"]
    counts = {row[0]: (int(row[1]), int(row[2])) for row in rows}
    assert counts == {"closedform": (3, 0), "shift": (3, 0),
                      "twisted": (3, 0), "witt": (63, 0), "total": (72, 0)}
    assert sum(float(row[4]) for row in rows[:-1]) == pytest.approx(1, abs=0.01)


def test_op_kinds_counts_the_route_of_each_value():
    # on complex-interp every op computes one value (a pool value or an
    # interpolation check's series side) and the second table says which
    # route served it; padic-levels computes none and prints no such table
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_kinds.py"), "complex-interp",
         "1", "2"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    split = next(i for i, row in enumerate(lines)
                 if row == ["kind", "residue", "direct", "fallback"])
    ops = {row[0]: int(row[1]) for row in lines[1:split]}
    routes = {row[0]: list(map(int, row[1:])) for row in lines[split + 1:]}
    assert set(routes) == set(ops) == {"linterp", "pool", "zinterp", "total"}
    for kind, n in ops.items():
        assert sum(routes[kind]) == n, kind
    assert routes["total"][0] > 0 and routes["total"][1] > 0
