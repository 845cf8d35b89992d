"""qzeta: the (h,q)-extension of Bernoulli numbers/polynomials, their
Dirichlet-character generalizations, and verification of the defining
identities in exact, p-adic and complex arithmetic.

`import qzeta` loads none of its modules: each public name is imported from
its module on first access (PEP 562), so a process that asks only for
`qzeta.characters` never compiles the exact, p-adic or complex code.
The value classes (`LogScalar`, `DirichletCharacter`, `PadicNumber`,
`VerificationReport`, ...) are immutable through one private base,
`qzeta.characters._Frozen`, which every CLI process already loads; here it
would add its compile time to every `import qzeta`."""

from importlib import import_module as _import_module

_EXPORTS = {
    "analytic": ("SeriesEvalConfig", "l_interpolation_verify",
                 "q_hurwitz_zeta", "q_lfunction", "q_zeta",
                 "zeta_interpolation_verify"),
    "characters": ("DirichletCharacter", "UnityRoot", "enumerate_characters",
                   "principal_character", "unit_group_generators"),
    "exact": ("LogScalar", "QPolynomial", "RationalFunction", "XPolynomial",
              "eval_log_scalar_complex", "eval_log_scalar_mp"),
    "padic": ("MonomialTestFunction", "PadicNumber", "closed_form_verify",
              "eval_log_scalar_padic", "padic_exp", "padic_generalized_verify",
              "padic_log", "padic_pow", "q_bracket", "q_volkenborn_sum",
              "shift_identity_verify", "volkenborn_sum", "witt_verify"),
    "qbernoulli": ("classical_bernoulli", "distribution_check",
                   "gen_function_identity_check", "generalized_q_bernoulli",
                   "generalized_q_bernoulli_exact", "q_bernoulli_number",
                   "q_bernoulli_polynomial", "q_bernoulli_table"),
    "report": ("VerificationReport",),
    "series": (),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
