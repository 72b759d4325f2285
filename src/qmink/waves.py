"""q-exponential series and momentum eigenstate solutions of the quantum
wave equations, verified degree by degree.

States are truncated series graded by total degree.  The massless light
cone state is e_q(-i k x30); the massive rest state is the product
e_q(i m xi+) e_q(i m xi-) of central series, whose degree-d slice

    (i m)^d  sum_{a+b=d}  xi+^a xi-^b / ([[a]]! [[b]]!)

is symmetric under xi+ <-> xi-, hence a polynomial in x0 and x^2: the
square root drops out of the expansion.  Each 1/[[n]]! is read from the
known split of [[n]]! and kept (`scalars.qfactorial_inverse`).

Verification compares degree slices, so the eigenvalue equations are graded
identities; the algebra carries no topology in which the full series could
be summed.  A series keeps the first gradient of each slice once it is
computed (`TruncatedSeries.gradient`): the Klein-Gordon check of a rest
state contracts the gradients its eigenvalue check has built, and takes
only the second gradients anew.
"""

from __future__ import annotations

from collections import namedtuple

from . import scalars as sc
from . import algebra as al
from . import derivatives as dv

__all__ = [
    "TruncatedSeries", "VerifyReport", "qexp",
    "massless_state", "massive_rest_state",
    "verify_massless", "verify_massive", "verify_klein_gordon",
    "central_alpha_expansion",
]


class TruncatedSeries:
    """Degree-graded truncation: slices[d] holds the total-degree-d part
    (immutable).

    `gradient(d)` keeps each slice's gradient for the life of the series,
    so checks run one after another on it share their first gradients.
    The memo is no part of the value: `==` and `repr` skip it.
    """

    __slots__ = ("slices", "truncation", "_grads")
    __hash__ = None

    def __init__(self, slices, truncation):
        if len(slices) != truncation + 1:
            raise ValueError("need one slice per degree 0..N")
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_grads", {})

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.slices, self.truncation) == \
            (other.slices, other.truncation)

    def __repr__(self):
        return (f"TruncatedSeries(slices={self.slices!r}, "
                f"truncation={self.truncation!r})")

    def slice(self, d):
        return self.slices[d] if 0 <= d <= self.truncation else al.zero()

    def gradient(self, d):
        """grad_closed(self.slice(d)), computed once per series."""
        grad = self._grads.get(d)
        if grad is None:
            grad = self._grads[d] = dv.grad_closed(self.slice(d))
        return grad

    def __mul__(self, other):
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            tuple(al.add_all(self.slice(a) * other.slice(d - a)
                             for a in range(d + 1))
                  for d in range(n + 1)), n)

    def scale(self, c):
        return TruncatedSeries(tuple(s.scale(c) for s in self.slices),
                               self.truncation)


class VerifyReport(namedtuple(
        "VerifyReport", "name ok degrees_checked first_failure residual",
        defaults=(None, None, None))):
    """Outcome of one check.  A graded check also records the degrees it
    verified and the first degree that failed; a failure keeps what failed
    in `residual`."""

    __slots__ = ()

    def __str__(self):
        if self.ok:
            return f"{self.name}: pass through degree {self.degrees_checked}"
        return (f"{self.name}: FAIL at degree {self.first_failure} "
                f"(residual {self.residual!r})")


def qexp(z, n_max):
    """Truncated q-exponential sum_{n=0..N} z^n / [[n]]!.

    z must be homogeneous of degree one (a Scalar multiple of a single
    generator); the zero Element gives the constant series 1.  The sum
    starts at n = 0 so that e_q(0) = 1 and the classical limit is exp.
    """
    if n_max < 0:
        raise ValueError("truncation degree must be >= 0")
    if not z.is_zero():
        degs = {sum(key) for key in z.terms}
        if degs != {1} or len(z.terms) != 1:
            raise ValueError("q-exponential argument must be a scalar "
                             "multiple of a single degree-one generator")
    slices = [al.one()]
    power = al.one()
    for n in range(1, n_max + 1):
        power = power * z
        slices.append(power.scale(sc.qfactorial_inverse(n)))
    return TruncatedSeries(tuple(slices), n_max)


def massless_state(k=None, n_max=12):
    """The light cone state e_q(-i k x30), truncated at n_max."""
    if k is None:
        k = sc.K
    z = al.monomial(d=1, coeff=-sc.I * k)
    return qexp(z, n_max)


def massive_rest_state(m=None, n_max=10):
    """The rest state e_q(i m xi+) e_q(i m xi-), truncated at n_max.

    Both factors are central, so the product order is immaterial."""
    if m is None:
        m = sc.M
    plus = qexp(al.monomial(a=1, coeff=sc.I * m), n_max)
    minus = qexp(al.monomial(b=1, coeff=sc.I * m), n_max)
    return plus * minus


def _graded_check(name, series, lag, mismatch):
    """Check mismatch(d) is None and divides out every delta, for
    d = 0..N; a failure at d reports as a pass over 0..d-1."""
    for d in range(series.truncation + 1):
        try:
            residual = mismatch(d)
        except al.DeltaDivisionError as err:
            residual = err.remainder
        if residual is not None:
            return VerifyReport(name, False, max(d - 1 - lag, 0), d, residual)
    return VerifyReport(name, True, max(series.truncation - lag, 0))


def _graded_gradient_check(name, series, expected):
    """Check grad(slice_d)^mu == expected(mu, slice_{d-1}) for all d."""
    def mismatch(d):
        got = series.gradient(d).cleared()
        prev = series.slice(d - 1)
        for mu in range(4):
            want = expected(mu, prev)
            if got[mu] != want:
                return got[mu] - want

    return _graded_check(name, series, 1, mismatch)


def verify_massless(series, k=None):
    """All four eigenvalue equations of the light cone state:
    d^0 psi = i k psi, d^3 psi = -i k psi, d^+- psi = 0."""
    ik = sc.I * (sc.K if k is None else k)

    def expected(mu, prev):
        if mu == 0:
            return prev.scale(ik)
        if mu == 3:
            return prev.scale(-ik)
        return al.zero()

    return _graded_gradient_check("massless eigenvalue equations",
                                  series, expected)


def verify_massive(series, m=None):
    """Rest state equations: d^0 psi = i m psi, spatial derivatives zero."""
    im = sc.I * (sc.M if m is None else m)

    def expected(mu, prev):
        return prev.scale(im) if mu == 0 else al.zero()

    return _graded_gradient_check("massive eigenvalue equations",
                                  series, expected)


def verify_klein_gordon(series, m=None):
    """d_mu d^mu psi = -m^2 psi, checked on degree slices."""
    msq = -(sc.M * sc.M if m is None else m * m)

    def mismatch(d):
        box = dv.contract_gradient(series.gradient(d))
        want = series.slice(d - 2).scale(msq)
        return None if box == want else box - want

    return _graded_check("quantum Klein-Gordon equation", series, 2,
                         mismatch)


def central_alpha_expansion(el):
    """Expand a central Element through xi+- = (x0 +- alpha)/2.

    Returns a dict {(x0 exponent, alpha exponent): Scalar} without reducing
    alpha^2, so parity of the square root is visible.  A term adds its
    coefficient times one rational weight n / 2^(a+b) to each key."""
    from math import comb
    acc = sc.SumOfProducts()
    for (a, b, c, d, e), coeff in el.terms.items():
        if c or d or e:
            raise ValueError("alpha expansion applies to central elements")
        # the integer coefficient of x0^j alpha^(a+b-j), summed over u+v = j
        ints = [0] * (a + b + 1)
        for u in range(a + 1):
            for v in range(b + 1):
                ints[u + v] += comb(a, u) * comb(b, v) * (-1) ** (b - v)
        for j, n in enumerate(ints):
            if n:
                acc.add((j, a + b - j), coeff, sc.rational(n, 2 ** (a + b)))
    return acc.result()
