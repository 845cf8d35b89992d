"""Reach: list the functions of a source tree that no CLI command and no
benchmark op enters.

    python3 tools/reach.py [TREE]

It runs, from TREE/src and TREE/perfbench (TREE defaults to this
checkout), in this process and under `sys.setprofile`:
- the 75 commands of `tools/parity.py`'s `cli` grid, plus `bernoulli --h 0`
  and `verify twisted --h 0`, each through `qzeta.cli.main`;
- two rounds at seeds 1 and 2 of every workload's op stream
  (`perfbench/ops.rounds`), each op through `worker.Runner.run_op`, or
  through `qzeta.cli.main` for a cli op, and then `worker.exact_values`.
It prints each function of TREE/src/qzeta that no call entered, as
`FILE:LINE NAME LINES`, and then their count and total line count.  A
function defined inside one that no call entered is not listed: its lines
are counted with the enclosing one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from itertools import product
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
EXTRA = ["bernoulli --h 0", "verify twisted --h 0"]


def functions(pkg: Path) -> dict[tuple[str, int], tuple[str, int, tuple]]:
    """{key: (qualified name, lines, the key of the enclosing def or None)}
    for every def under `pkg`, keyed by (file, first line of its code
    object): a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".", outer)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (str(path), min([d.lineno for d in child.decorator_list],
                                      default=child.lineno))
                out[key] = (prefix + child.name,
                            child.end_lineno - child.lineno + 1, outer)
                walk(child, path, prefix + child.name + ".", key)

    for path in sorted(pkg.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "", None)
    return out


def traffic(tree: Path) -> None:
    """Every CLI command and every op of the streams above."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench"), str(TOOLS)]
    import parity
    from qzeta import cli
    import ops
    import worker

    if Path(cli.__file__).parent != tree / "src" / "qzeta":
        raise SystemExit(f"qzeta was loaded from {cli.__file__}, not {tree}")

    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        for argv in parity.GOLDEN + parity.VALID + parity.BAD + EXTRA:
            cli.main(argv.split())
        runner = worker.Runner(traced=False)
        for workload, seed in product(ops._GENERATORS, (1, 2)):
            stream, ran = ops.rounds(workload, seed), []
            for op in next(stream) + next(stream):
                # an op that raises has still entered what it reached
                with contextlib.suppress(Exception):
                    if op[0] == "cli":
                        cli.main(ops.cli_argv(op))
                    else:
                        runner.run_op(op)
                ran.append(op)
            worker.exact_values(ran)


def main() -> int:
    tree = Path(sys.argv[1] if len(sys.argv) > 1
                else TOOLS.parent).resolve()
    pkg = tree / "src" / "qzeta"
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        traffic(tree)
    finally:
        sys.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    n = lines = 0
    # a def inside one that was never entered is counted with it
    for key, (name, size, outer) in sorted(functions(pkg).items()):
        if key not in reached and (outer is None or outer in reached):
            path, start = key
            print(f"{Path(path).relative_to(pkg.parent)}:{start} {name} {size}")
            n, lines = n + 1, lines + size
    print(f"{n} functions, {lines} lines never entered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
