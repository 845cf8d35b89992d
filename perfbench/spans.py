"""Spans around the public functions of each qzeta module, installed from
outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
qzeta module namespace that holds it (for functions) or in its class (for
methods, including aliases such as ``__rmul__ = __mul__``).  Each call
appends one span (name, parent span, start, end) to flat arrays kept in
memory; ``summary()`` derives self time from them (a span's duration minus
the durations of its direct children) and ``dump()`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# span name -> (module, class or None, attribute names)
TRACED = {
    "exact.poly_mul": ("exact", "QPolynomial", ("__mul__",)),
    "exact.poly_gcd": ("exact", "QPolynomial", ("gcd",)),
    "exact.rf_add": ("exact", "RationalFunction", ("__add__",)),
    "exact.rf_sum": ("exact", None, ("rf_sum",)),
    "exact.rf_mul": ("exact", "RationalFunction", ("__mul__",)),
    "exact.xpoly_eval": ("exact", "XPolynomial", ("eval_fraction", "eval_complex")),
    "exact.eval_complex": ("exact", None, ("eval_log_scalar_complex",)),
    "series.invert": ("series", "TruncatedSeries", ("invert",)),
    "series.mul": ("series", "TruncatedSeries", ("__mul__",)),
    "qbernoulli.table": ("qbernoulli", None, ("q_bernoulli_table",)),
    "qbernoulli.polynomial": ("qbernoulli", None, ("q_bernoulli_polynomial",)),
    "qbernoulli.twisted": ("qbernoulli", None, ("_twisted_terms",)),
    "qbernoulli.distribution": ("qbernoulli", None, ("distribution_check",)),
    "qbernoulli.genfunction": ("qbernoulli", None, ("gen_function_identity_check",)),
    "qbernoulli.generalized": ("qbernoulli", None, ("generalized_q_bernoulli",
                                                    "generalized_q_bernoulli_exact")),
    "characters.enumerate": ("characters", None, ("enumerate_characters",)),
    "padic.volkenborn": ("padic", None, ("volkenborn_levels",)),
    "padic.witt": ("padic", None, ("witt_verify",)),
    "padic.verify_loops": ("padic", None, ("shift_identity_verify",
                                           "padic_generalized_verify",
                                           "q_volkenborn_sum")),
    "padic.target": ("padic", None, ("eval_log_scalar_padic", "padic_log",
                                     "padic_exp")),
    "analytic.lerch": ("analytic", None, ("lerch_sum_with_bound",)),
    "cli.main": ("cli", None, ("main",)),
    "cli.report": ("report", "VerificationReport", ("to_dict",)),
}


def _volkenborn_terms(n_max, h, q, levels, prec=None):
    return q.p ** max(levels) * (n_max + 1)


def _loop_terms(fn_name, args):
    if fn_name == "shift_identity_verify":          # (f, b, N)
        return args[0].q.p ** args[2]
    if fn_name == "padic_generalized_verify":       # (chi, h, n, q, levels)
        return args[0].modulus * args[3].p ** max(args[4])
    return args[3].p ** args[4]                     # q_volkenborn_sum(n, h, x0, q, N)


def _witt_key(h, n, q, levels, *rest, **kw):
    return (q.p, h, q._exact if q._exact is not None else (q.val, q.unit),
            tuple(sorted(levels)))


def _twisted_key(chi, h, n):
    return (chi.modulus, chi.exponents, h, n)


class _CountingMath:
    """Stand-in for the ``math`` module inside ``analytic``: counts the
    ``log`` calls made directly by a Lerch sum, one per summed term."""

    def __init__(self, real, tracer, lerch_id):
        self._real = real
        self._tracer = tracer
        self._lerch_id = lerch_id

    def __getattr__(self, name):
        return getattr(self._real, name)

    def log(self, *a):
        t = self._tracer
        if t.names[t.stack[-1]] == self._lerch_id:
            t.lerch_terms += 1
        return self._real.log(*a)


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(TRACED)}
        self.ids["op"] = len(self.ids)
        self.ids["run"] = len(self.ids)
        self.names = array("H", [self.ids["run"]])
        self.parents = array("l", [-1])
        self.starts = array("d", [perf_counter()])
        self.ends = array("d", [0.0])
        self.stack = [0]
        self.terms = {"padic.volkenborn": 0, "padic.verify_loops": 0}
        self.lerch_terms = 0
        self.repeats = {"padic.witt": [0, set()], "qbernoulli.twisted": [0, set()]}
        self.originals = {}

    # -- installing ----------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"qzeta.{m}")
                for m in ("exact", "series", "qbernoulli", "characters",
                          "padic", "analytic", "report", "cli")}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qzeta" or name.startswith("qzeta.")]
        for span, (mod, cls, attrs) in TRACED.items():
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            for attr in attrs:
                fn = getattr(owner, attr)
                self.originals[f"{mod}.{cls + '.' if cls else ''}{attr}"] = fn
                wrapper = self._wrap(fn, span, attr)
                targets = [owner] if cls else namespaces
                for ns in targets:
                    for k, v in list(vars(ns).items()):
                        if v is fn:
                            setattr(ns, k, wrapper)
        mods["analytic"].math = _CountingMath(mods["analytic"].math, self,
                                              self.ids["analytic.lerch"])

    def _wrap(self, fn, span, attr):
        nid = self.ids[span]
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        hook = None
        if span == "padic.volkenborn":
            def hook(a, k):
                self.terms[span] += _volkenborn_terms(*a, **k)
        elif span == "padic.verify_loops":
            def hook(a, k):
                self.terms[span] += _loop_terms(attr, a)
        elif span in self.repeats:
            keyf = _witt_key if span == "padic.witt" else _twisted_key
            rep = self.repeats[span]

            def hook(a, k):
                key = keyf(*a, **k)
                if key in rep[1]:
                    rep[0] += 1
                rep[1].add(key)

        def wrapper(*a, **k):
            if hook is not None:
                hook(a, k)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*a, **k)
            finally:
                ends[i] = perf_counter()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def close(self):
        self.ends[0] = perf_counter()

    def totals(self) -> dict:
        """Per span name: calls and self seconds."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(1, n):
            child[parents[i]] += ends[i] - starts[i]
        names = list(self.ids)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        for i in range(1, n):
            nid = self.names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        return {name: {"calls": calls[j], "self_s": self_s[j]}
                for j, name in enumerate(names) if calls[j]}

    def wrap_op(self, fn):
        """`fn` with one "op" span per call, the parent of its layer spans."""
        return self._wrap(fn, "op", None)

    def summary(self) -> dict:
        caches = {}
        for key in ("table", "polynomial"):
            fn = self.originals[f"qbernoulli.q_bernoulli_{key}"]
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": self.totals(),
            "terms": dict(self.terms, **{"analytic.lerch": self.lerch_terms}),
            "repeats": {k: [v[0], len(v[1])] for k, v in self.repeats.items()},
            "caches": caches,
            "n_spans": len(self.names),
        }

    def dump(self, path: str):
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": list(self.ids), "count": len(self.names),
                      "arrays": [["name", "H"], ["parent", "l"],
                                 ["start", "d"], ["end", "d"]]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def layer_metrics(summary: dict, cli: dict | None, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced run, by the names in BENCHMARK.json.

    `cli` holds the totals over the CLI processes of a cli-oneshot run
    (process seconds outside ``cli.main``, and output bytes), else None.
    """
    spans = summary["spans"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    terms = summary["terms"]
    caches = summary["caches"]
    m = {}
    for key, names in (("poly_mul", ("exact.poly_mul",)),
                       ("poly_gcd", ("exact.poly_gcd",)),
                       ("rf_add", ("exact.rf_add", "exact.rf_sum")),
                       ("rf_mul", ("exact.rf_mul",)),
                       ("xpoly_eval", ("exact.xpoly_eval",)),
                       ("eval_complex", ("exact.eval_complex",))):
        m[f"exact.{key}.calls"] = (calls(*names), "count")
        m[f"exact.{key}.self_s"] = (self_s(*names), "s")
    for key in ("invert", "mul"):
        m[f"series.{key}.calls"] = (calls(f"series.{key}"), "count")
        m[f"series.{key}.self_s"] = (self_s(f"series.{key}"), "s")
    for key in ("table", "polynomial"):
        c = caches[key]
        total = c["hits"] + c["misses"]
        m[f"qbernoulli.{key}.calls"] = (total, "count")
        m[f"qbernoulli.{key}.misses"] = (c["misses"], "count")
        m[f"qbernoulli.{key}.hit_ratio"] = (ratio(c["hits"], total), "ratio")
    m["qbernoulli.table.self_s"] = (self_s("qbernoulli.table"), "s")
    tw_rep, _ = summary["repeats"]["qbernoulli.twisted"]
    m["qbernoulli.twisted.calls"] = (calls("qbernoulli.twisted"), "count")
    m["qbernoulli.twisted.self_s"] = (self_s("qbernoulli.twisted"), "s")
    m["qbernoulli.twisted.repeat_share"] = (
        ratio(tw_rep, calls("qbernoulli.twisted")), "ratio")
    m["qbernoulli.distribution.self_s"] = (self_s("qbernoulli.distribution"), "s")
    m["qbernoulli.genfunction.self_s"] = (self_s("qbernoulli.genfunction"), "s")
    m["characters.enumerate.calls"] = (calls("characters.enumerate"), "count")
    m["characters.enumerate.self_s"] = (self_s("characters.enumerate"), "s")
    vt, vs = terms["padic.volkenborn"], self_s("padic.volkenborn")
    m["padic.volkenborn.calls"] = (calls("padic.volkenborn"), "count")
    m["padic.volkenborn.terms"] = (vt, "count")
    m["padic.volkenborn.self_s"] = (vs, "s")
    m["padic.volkenborn.ns_per_term"] = (ratio(vs * 1e9, vt), "ns")
    m["padic.verify_loops.terms"] = (terms["padic.verify_loops"], "count")
    m["padic.verify_loops.self_s"] = (self_s("padic.verify_loops"), "s")
    w_rep, _ = summary["repeats"]["padic.witt"]
    m["padic.witt.repeat_share"] = (ratio(w_rep, calls("padic.witt")), "ratio")
    m["padic.target.self_s"] = (self_s("padic.target"), "s")
    lt, ls = terms["analytic.lerch"], self_s("analytic.lerch")
    m["analytic.lerch.calls"] = (calls("analytic.lerch"), "count")
    m["analytic.lerch.terms"] = (lt, "count")
    m["analytic.lerch.self_s"] = (ls, "s")
    m["analytic.lerch.ns_per_term"] = (ratio(ls * 1e9, lt), "ns")
    m["cli.process_s"] = (cli["process_s"] if cli else 0.0, "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.report.self_s"] = (self_s("cli.report"), "s")
    m["cli.output_bytes"] = (cli["output_bytes"] if cli else 0, "bytes")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m


def merge_summaries(parts: list[dict]) -> dict:
    """Add up the summaries of several traced processes (cli-oneshot)."""
    out = {"spans": {}, "terms": {}, "repeats": {}, "caches": {}, "n_spans": 0}
    for s in parts:
        for name, v in s["spans"].items():
            t = out["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += v["calls"]
            t["self_s"] += v["self_s"]
        for k, v in s["terms"].items():
            out["terms"][k] = out["terms"].get(k, 0) + v
        for k, v in s["repeats"].items():
            r = out["repeats"].setdefault(k, [0, 0])
            r[0] += v[0]
            r[1] += v[1]
        for k, v in s["caches"].items():
            c = out["caches"].setdefault(k, {"hits": 0, "misses": 0})
            c["hits"] += v["hits"]
            c["misses"] += v["misses"]
        out["n_spans"] += s["n_spans"]
    return out
