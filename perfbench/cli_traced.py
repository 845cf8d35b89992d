"""``python -m qzeta.cli`` with spans, for the traced cli-oneshot run.

    python3 perfbench/cli_traced.py SUMMARY.json ARGS...

Runs ``qzeta.cli.main(ARGS)`` under the tracer of spans.py, writes the span
totals and the duration of ``cli.main`` to SUMMARY.json, and exits with the
command's exit code.
"""

import json
import sys
from time import perf_counter

import qzeta.cli

from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t = perf_counter()
    code = qzeta.cli.main(argv)
    main_s = perf_counter() - t
    sys.stdout.flush()
    tracer.close()
    with open(path, "w") as fh:
        json.dump({"main_s": main_s, "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
