"""The benchmark's span tracer still finds every name it wraps in src/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import TRACED, Tracer
from qzeta.qbernoulli import distribution_check, gen_function_identity_check

tracer = Tracer()
tracer.install()
ok = distribution_check(2, 3, 2).passed and \\
    gen_function_identity_check(-3, 5).passed
tracer.close()
print(json.dumps({"ok": ok, "traced": list(TRACED),
                  "spans": tracer.summary()["spans"]}))
"""


def test_span_tracer_installs_on_src():
    # Tracer.install() looks up each traced name (QPolynomial.gcd,
    # RationalFunction.__add__, rf_sum, ...) and raises if one is gone
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["ok"]
    spans = doc["spans"]
    assert spans["exact.rf_add"]["calls"] > 0
    assert spans["exact.rf_mul"]["calls"] > 0
    # denominators stay factored: no polynomial gcd on any arithmetic path
    assert "exact.poly_gcd" in doc["traced"]
    assert "exact.poly_gcd" not in spans
