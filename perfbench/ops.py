"""Seeded op streams for the four workloads.

An op is a plain tuple whose first item names its kind; the rest are its
arguments as numbers and strings.  ``rounds(workload, seed)`` yields lists of
ops forever and is a pure function of its arguments: the worker runs the ops
and the checker regenerates the same stream to look up what each op should
give.  The parameters that set an op's cost (sizes, h, n, the size class of
a pool point) follow fixed cycles, the same for every seed; the seed draws
the rest (q, s, x, characters, order).  So runs of different seeds do the
same amount of work on different inputs.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("exact-identities", "padic-levels", "complex-interp", "cli-oneshot")

# About the seconds one round takes at the seed commit, in time scaled to the
# reference speed (calib.py).  A run of S seconds does a fixed number of
# rounds, not as many as fit in S, so that every run of a workload does the
# same work however fast the machine happens to be at the time.
ROUND_SECONDS = {"exact-identities": 5.0, "padic-levels": 4.0,
                 "complex-interp": 0.1, "cli-oneshot": 2.0}
MIN_OPS = 100           # so that at least ten latencies lie beyond p90

POOL_SEED = "lerch-pool-v1"
POOL_SIZE = 4096
MODULI = (1, 3, 4, 5)
N_CHARS = {1: 1, 3: 2, 4: 2, 5: 4}       # phi(d) characters mod d
REAL_CHARS = {1: (0,), 3: (0, 1), 4: (0, 1), 5: (0, 2)}


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _q_abs(u: float, lo: float, hi: float) -> float:
    """|q| at quantile u of a law with 1 - |q| log-uniform on [1-hi, 1-lo],
    so that |q| near 1 is well covered."""
    a, b = math.log(1 - hi), math.log(1 - lo)
    return 1 - math.exp(a + u * (b - a))


def _complex_q(rng: random.Random, lo: float, hi: float,
               u: float | None = None) -> complex:
    """q with |q| in [lo, hi] (at quantile u, or a random one), real or with
    a random argument."""
    r = _q_abs(rng.random() if u is None else u, lo, hi)
    if rng.random() < 0.5:
        return complex(round(r, 6), 0.0)
    th = rng.uniform(-math.pi, math.pi)
    z = cmath.rect(r, th)
    return complex(round(z.real, 6), round(z.imag, 6))


# ---------------------------------------------------------------------------
# direct q-zeta / q-L evaluations: one fixed pool with stored references
# ---------------------------------------------------------------------------

def lerch_pool() -> list[tuple]:
    """POOL_SIZE direct evaluation points, the same on every call.

    ("zeta", h, q, s, x) is q_hurwitz_zeta(h, q, s, x) and
    ("lfun", h, q, s, d, idx) is q_lfunction(h, q, s, chi) for the idx-th
    character mod d.  Their mpmath references are in lerch_refs.json
    (written by make_refs.py), because one lerchphi evaluation costs as much
    as a hundred of the ops it checks.
    """
    rng = _rng(POOL_SEED)
    pts = []
    for _ in range(POOL_SIZE):
        h = rng.choice((1, 2, 3))
        q = _complex_q(rng, 0.2, 0.99)
        while True:
            sr = round(rng.uniform(-10.0, 4.0), 4)
            si = 0.0 if rng.random() < 0.3 else round(rng.uniform(-6.0, 6.0), 4)
            if abs(complex(sr, si) - 1) >= 0.25:
                break
        s = complex(sr, si)
        if rng.random() < 0.5:
            pts.append(("zeta", h, q, s, round(rng.uniform(0.1, 3.0), 4)))
        else:
            d = rng.choice(MODULI)
            pts.append(("lfun", h, q, s, d, rng.randrange(N_CHARS[d])))
    return pts


class _PoolDraw:
    """Seeded walk over the pool without replacement, reshuffled when it
    runs out.  complex-interp takes one point per round from each of its 12
    strata of 341 points, so a run of up to 34 s never repeats one."""

    def __init__(self, rng: random.Random, indices=range(POOL_SIZE)):
        self.rng = rng
        self.indices = list(indices)
        self.order: list[int] = []

    def next(self) -> int:
        if not self.order:
            self.order = list(self.indices)
            self.rng.shuffle(self.order)
        return self.order.pop()


def _pool_strata(rng: random.Random, pool, n: int) -> list[_PoolDraw]:
    """The pool cut into n strata by |q^h|, which sets how many terms a
    Lerch sum needs, each with its own seeded walk."""
    by_cost = sorted(range(len(pool)), key=lambda i: abs(pool[i][2]) ** pool[i][1])
    size = len(pool) // n
    return [_PoolDraw(rng, by_cost[k * size:(k + 1) * size]) for k in range(n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _exact_identities(rng: random.Random):
    """A round is one pass over h = -3..3 in seeded order.  Each h is a
    group: one n from 0..6 and one from 7..12, each (h, n) with every m, then
    one generating-function check.  The n step through their ranges with
    the round number, so that each round uses every n of 0..6 once and no
    (h, n) repeats within six rounds.  Of each pair h, -h one gets a large
    order, near the top band of |h|, and the other a small one from 3..6.
    Which sign gets the large order, and its offset from the band, step
    through fixed cycles with the round number, because -h costs up to half
    as much again as h; the small checks cost a few ms, well below the
    median op, so that their seeded orders move neither p50 nor p90.  The
    seed draws the order of the groups and the small orders; the sizes are
    the same for every seed, and so is the m order, since the first m of
    each (h, n) pays for building B_n^{(h)}(x)."""
    top = {1: 28, 2: 21, 3: 15}
    r = 0
    while True:
        orders = {}
        for k, mid in top.items():
            large, small = mid + (r + k) % 3 - 1, rng.randint(3, 6)
            orders[k], orders[-k] = (large, small) if (r + k) % 2 else (small, large)
        ops = []
        for i in rng.sample(range(7), 7):
            h = i - 3
            for n in ((r + i) % 7, 7 + (r + 2 * i) % 6):
                ops += [("dist", h, n, m) for m in (1, 2, 3, 5)]
            if h:
                ops.append(("genfun", h, orders[h]))
        r += 1
        yield ops


# p^N size classes: the levels top out near 2e3, 2e4, 1e5 and 6e5
_SIZE_CLASSES = {
    "A": {3: 7, 5: 5, 7: 4},
    "B": {3: 9, 5: 6, 7: 5},
    "C": {3: 10, 5: 7, 7: 6},
    "D": {3: 12, 5: 8, 7: 7},
}
_TWISTED = ((5, 3), (7, 3), (3, 4), (5, 4), (7, 4))    # (p, d), gcd(p, d) = 1


def _padic_q(rng: random.Random, p: int) -> str:
    return rng.choice((f"{1 + p}", f"{1 + 2 * p}", f"{1 - p}",
                       f"{1 + p}/{1 + 2 * p}"))


def _padic_levels(rng: random.Random):
    """A round has, for each p in 3, 5, 7: three Witt groups (one
    (p, h, q, levels) pass for each n in 0..6) with p^N in size classes A, B
    and C, one shift check (class C, or D for p = 7), one closed-form check;
    and three twisted checks (class B).  Groups stay together; the blocks
    come in seeded order.  The parameters that set the cost (h, n, the
    (p, d) pairs) step through fixed cycles with the round number, so that
    the B_n^{(h)} targets hit the same caches for every seed; the seed draws
    q, t, b and the characters."""
    r = 0
    while True:
        blocks = []
        for i, p in enumerate((3, 5, 7)):
            for j, cls in enumerate("ABC"):
                top = _SIZE_CLASSES[cls][p]
                h, q = 1 + (r + i + j) % 3, _padic_q(rng, p)
                blocks.append([("witt", p, h, q, (top - 2, top - 1, top), n)
                               for n in range(7)])
            blocks.append([("shift", p, (r + i) % 3, (r + i) % 5, _padic_q(rng, p),
                            rng.randint(1, 3), _SIZE_CLASSES["D" if p == 7 else "C"][p])])
            blocks.append([("closedform", p, rng.choice((0, 1, 2)),
                            rng.choice((f"{p}", f"{2 * p}", f"{p}/{1 + p}")),
                            _padic_q(rng, p), rng.randint(3, 8))])
        for k in range(3):
            p, d = _TWISTED[(3 * r + k) % len(_TWISTED)]
            top = _SIZE_CLASSES["B"][p]
            blocks.append([("twisted", p, d, rng.choice(REAL_CHARS[d]),
                            1 + (r + k) % 2, (r + k) % 4, _padic_q(rng, p),
                            (top - 2, top - 1, top))])
        rng.shuffle(blocks)
        r += 1
        yield [op for b in blocks for op in b]


_N_BANDS = ((1, 4), (5, 8), (9, 12))
_L_CLASSES = [(d, h, band) for d in MODULI for h in (1, 2, 3) for band in _N_BANDS]
_Z_CLASSES = [(h, band) for h in (1, 2, 3) for band in _N_BANDS]
_Q_BANDS = ((0.2, 0.5), (0.5, 0.9), (0.9, 0.99))


_GOLDEN = (math.sqrt(5) - 1) / 2


def _complex_interp(rng: random.Random):
    """A round has 12 direct values from the pool, one from each |q^h|
    stratum, one L interpolation key (d, chi, h, n) and one zeta key
    (h, n, x), each key with three q, one per |q| band.  The keys' cost
    classes (d, h, n band) come in a fixed cycle, and the |q| of the keys
    step through their bands by a fixed low-discrepancy sequence, the same
    for every seed; the seed draws the pool points, chi, n, x and the
    arguments of q."""
    strata = _pool_strata(rng, lerch_pool(), 12)
    r = 0
    while True:
        us = [((3 * r + k + 1) * _GOLDEN) % 1 for k in range(6)]
        d, h, (lo, hi) = _L_CLASSES[r % len(_L_CLASSES)]
        n = rng.randint(lo, hi)
        idx = rng.randrange(N_CHARS[d])
        ops = [("linterp", h, _complex_q(rng, *qb, us[k]), n, d, idx)
               for k, qb in enumerate(_Q_BANDS)]
        h, (lo, hi) = _Z_CLASSES[r % len(_Z_CLASSES)]
        n = rng.randint(lo, hi)
        x = rng.choice((1.0, 0.5, 2.7, round(rng.uniform(0.1, 3), 4)))
        ops += [("zinterp", h, _complex_q(rng, *qb, us[3 + k]), n, x)
                for k, qb in enumerate(_Q_BANDS)]
        ops += [("pool", s.next()) for s in strata]
        rng.shuffle(ops)
        r += 1
        yield ops


def _cli_oneshot(rng: random.Random):
    """A round runs every subcommand and verify target once, and one bad
    input.  The parameters that set an op's cost (h, n, m, p) step through
    fixed cycles with the round number; the seed draws q, s, x, the
    characters and the pool points."""
    draw = _PoolDraw(rng)
    pool = lerch_pool()
    r = 0
    while True:
        h = (1, 2, 3, -1, -2)[r % 5]
        hp = (1, 2, 3)[r % 3]
        p = (3, 5, 7)[r % 3]
        d = (3, 4, 5)[r % 3]
        small_top = {3: 7, 5: 5, 7: 4}[p]
        ops = [
            ("cli", "bernoulli", "--h", str(h), "--n", "8"),
            ("cli", "bernoulli", "--h", str(hp), "--n", "10",
             f"--q={_fmt_q(_complex_q(rng, 0.2, 0.99))}"),
            ("cli", "polynomial", "--h", str(h), "--n", "6"),
            ("cli", "generalized", "--modulus", str(d), "--char-index",
             str(rng.randrange(N_CHARS[d])), "--h", str(hp), "--n", "4",
             f"--q={_fmt_q(_complex_q(rng, 0.2, 0.99))}"),
            ("cli", "characters", "--modulus", str(rng.randint(1, 24))),
            _cli_pool_op(pool, "zeta", draw),
            _cli_pool_op(pool, "lfun", draw),
            ("cli", "verify", "genfunction", "--h", str(h), "--n", "10"),
            ("cli", "verify", "distribution", "--h", str(h),
             "--n", "6", "--m", str((2, 3, 5)[r % 3])),
            ("cli", "verify", "witt", "--p", str(p), "--h", str(hp),
             "--n", str(rng.randint(0, 6)), "--levels", f"3:{small_top}"),
            ("cli", "verify", "shift", "--p", str(p), "--h", str(rng.randint(0, 2)),
             "--n", str(rng.randint(0, 4)), "--b", str(rng.randint(1, 3)),
             "--levels", str(small_top)),
            ("cli", "verify", "closedform", "--p", str(p), "--h", str(rng.randint(0, 2)),
             "--t", str(p), "--levels", str(rng.randint(3, 6))),
            _cli_twisted(rng),
            ("cli", "verify", "interp-zeta", "--h", str(hp),
             f"--q={_fmt_q(_complex_q(rng, 0.2, 0.6))}", "--n", "4",
             "--x", str(rng.choice((1.0, 0.5, 2.7)))),
            _cli_interp_l(rng, hp),
            ("cli", "verify", "witt", "--p", "4", "--levels", "3:5") if r % 2 else
            ("cli", "verify", "witt", "--p", str(p), "--levels", "5:3"),
        ]
        rng.shuffle(ops)
        r += 1
        yield ops


def _cli_twisted(rng):
    p, d = rng.choice(((5, 3), (7, 3), (3, 4), (5, 4), (7, 4)))
    top = {3: 6, 5: 4, 7: 3}[p]
    return ("cli", "verify", "twisted", "--p", str(p), "--modulus", str(d),
            "--char-index", str(rng.choice(REAL_CHARS[d])),
            "--h", str(rng.randint(1, 2)), "--n", str(rng.randint(0, 3)),
            "--levels", f"{top - 2}:{top}")


def _cli_interp_l(rng, h):
    # one in six is the modulus-1, n = 1 cell, whose residual is exactly 1
    if rng.random() < 1 / 6:
        d, idx, n = 1, 0, 1
    else:
        d = rng.choice(MODULI)
        idx, n = rng.randrange(N_CHARS[d]), 4
    return ("cli", "verify", "interp-l", "--h", str(h),
            f"--q={_fmt_q(_complex_q(rng, 0.2, 0.6))}", "--n", str(n),
            "--modulus", str(d), "--char-index", str(idx))


def _cli_pool_op(pool, kind, draw):
    while True:
        i = draw.next()
        pt = pool[i]
        if pt[0] == kind:
            break
    if kind == "zeta":
        _, h, q, s, x = pt
        return ("cli", "zeta", "--h", str(h), f"--q={_fmt_q(q)}", f"--s={_fmt_q(s)}",
                "--x", repr(x), "#pool", i)
    _, h, q, s, d, idx = pt
    return ("cli", "lfunction", "--modulus", str(d), "--char-index", str(idx),
            "--h", str(h), f"--q={_fmt_q(q)}", f"--s={_fmt_q(s)}", "#pool", i)


def _fmt_q(z: complex) -> str:
    """A complex number as the CLI parses it, round-tripping exactly.  It is
    passed as --q=VALUE, since a leading minus would read as an option."""
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


_GENERATORS = {
    "exact-identities": _exact_identities,
    "padic-levels": _padic_levels,
    "complex-interp": _complex_interp,
    "cli-oneshot": _cli_oneshot,
}


def rounds(workload: str, seed: int):
    """Endless rounds of ops for (workload, seed)."""
    return _GENERATORS[workload](_rng(workload, seed))


def rounds_for(workload: str, seconds: float) -> int:
    """How many rounds a run of `seconds` does: at least one, and enough
    for MIN_OPS ops (every round of a workload has the same number)."""
    per_round = len(next(rounds(workload, 0)))
    return max(round(seconds / ROUND_SECONDS[workload]),
               -(-MIN_OPS // per_round))


def cli_argv(op: tuple) -> list[str]:
    """The command-line arguments of a cli op (without the pool marker)."""
    args = list(op[1:])
    if "#pool" in args:
        args = args[:args.index("#pool")]
    return args


def cli_options(argv: list[str]) -> dict[str, str]:
    """--name VALUE and --name=VALUE options of a cli op, by name."""
    opts = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            if "=" in tok:
                k, v = tok.split("=", 1)
                opts[k] = v
            elif i + 1 < len(argv):
                opts[tok] = argv[i + 1]
    return opts
