"""q -> q^m on the exact types: a reference that builds values at q^m
directly, where qzeta reads them from one lift in q (`exact._lift_to_power`).

Test files import it as a sibling module (pytest puts this directory on
sys.path); `exact._subst_exps`, which the lift uses too, gives the new
denominator."""

from qzeta.exact import (LogScalar, QPolynomial, RationalFunction,
                         XPolynomial, _subst_exps)


def subst_q_power(a, m: int):
    """a(q^m), m >= 1, for a QPolynomial, RationalFunction, LogScalar or
    XPolynomial.  The log part of a LogScalar picks up a factor m, since
    log q^m = m log q.  A RationalFunction stays in lowest terms: q -> q^m
    sends each root of a new factor Phi_c to a root of Phi_d, where the
    numerator is not 0."""
    if isinstance(a, XPolynomial):
        return XPolynomial([subst_q_power(c, m) for c in a.coeffs])
    if isinstance(a, LogScalar):
        return LogScalar(subst_q_power(a.rat, m), subst_q_power(a.log, m) * m)
    if isinstance(a, RationalFunction):
        return RationalFunction._raw(subst_q_power(a.num, m),
                                     _subst_exps(a.exps, m))
    out = [0] * ((len(a.ints) - 1) * m + 1)
    out[::m] = a.ints
    return QPolynomial._raw(out, a.den)
