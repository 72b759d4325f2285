"""The gradient on quantum Minkowski space.

Two independent implementations are kept side by side:

* `grad_oracle` -- the recursion defined by the coproduct of the momenta,
  peeling one generator at a time:

      nabla(x_alpha w) = e_alpha w + q L_{x_alpha} nabla(w),

  evaluated over Poincare-Birkhoff-Witt words.  It is the ground truth.

* `grad_closed` -- the closed chain rule in the separated variables: for a
  monomial xi+^a xi-^b w with spatial word w,

      nabla f = (d_{q^2} f / d_{q^2} xi+) nabla xi+
              + (d_{q^2} f / d_{q^2} xi-) nabla xi-
              + (Pi+ q^{2a} + Pi- q^{2b}) (central part) nabla w,

  with nabla xi+- = Pi+- nabla x0, and the last term expanding into the
  plain spatial Jackson terms plus the delta-f correction (the two are
  assembled together here; `delta_correction` exposes the correction
  operator itself).  Partial Jackson derivatives act on ordered monomials
  only; the standalone `OrderedPoly` makes the ordering explicit.

  Every term shares the central denominator delta = xi+ - xi-: the
  projectors are (...)/delta.  So each component's numerator is summed
  over delta^1, from cached numerators of Pi+- nabla x0 and of
  delta (Pi+ q^{2a} + Pi- q^{2b}), and divided by delta once, when the
  component's `Localized` is built.

Both gradients sum, then reduce.  Each component is a
`scalars.SumOfProducts` fed by `algebra.mul_into`: the coefficient
products of a term are multiplied out without normalizing, grouped by
their denominator, and each group is reduced once, when the component is
built.  The oracle folds the unit q into the L entries once per word, and
sums both its recursion and its outer sum over PBW words this way.

All index vectors are in the four-vector order (0, -, +, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import scalars as sc

from . import algebra as al
from .algebra import Element, Localized
from . import matrices as mx

__all__ = [
    "Gradient", "OrderedPoly", "jackson", "jackson_element",
    "grad_oracle", "grad_closed", "delta_correction",
    "raise_index", "lower_index", "contract_d_alembert",
    "subst_xi_scale",
]


@dataclass(frozen=True)
class Gradient:
    """(nabla f)^mu for mu in (0, -, +, 3), as Localized components."""

    components: tuple

    def __post_init__(self):
        if len(self.components) != 4:
            raise ValueError("gradient has four components")

    def __getitem__(self, mu):
        return self.components[mu]

    def __add__(self, other):
        return Gradient(tuple(a + b for a, b in
                              zip(self.components, other.components)))

    def __sub__(self, other):
        return Gradient(tuple(a - b for a, b in
                              zip(self.components, other.components)))

    def __eq__(self, other):
        if not isinstance(other, Gradient):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def scale(self, c):
        return Gradient(tuple(x * c for x in self.components))

    def is_zero(self):
        return all(x.is_zero() for x in self.components)

    def cleared(self):
        """Components as Elements; raises DeltaDivisionError on residue."""
        return tuple(x.try_clear() for x in self.components)

    @staticmethod
    def zero():
        return Gradient((_LZERO,) * 4)

    @staticmethod
    def of_elements(elems):
        return Gradient(tuple(Localized.of(e) for e in elems))


_LZERO = Localized.of(al.zero())


# -- ordered polynomials and partial Jackson derivatives -----------------------

_VAR_SLOT = {"xip": 0, "xim": 1, "xp": 2, "x30": 3, "xm": 4}


class OrderedPoly:
    """Linear combination of ordered monomials in a fixed variable order.

    Partial Jackson derivatives depend on this order; the same algebra
    element written in two orders can have different partial derivatives.
    """

    __slots__ = ("variables", "terms")
    __hash__ = None

    def __init__(self, variables, terms):
        variables = tuple(variables)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms",
                           {tuple(k): v for k, v in terms.items()
                            if not v.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("OrderedPoly is immutable")

    def jackson(self, var):
        """Partial Jackson derivative with respect to one of the variables."""
        try:
            slot = self.variables.index(var)
        except ValueError:
            raise KeyError(f"{var!r} is not a variable of this ordering")
        return OrderedPoly(self.variables, _jackson_terms(self.terms, slot))

    def to_element(self):
        """Multiply out in the declared order (normal ordering applies)."""
        return al.add_all(
            prod((al.gen_element(var) ** n
                  for var, n in zip(self.variables, exps)),
                 start=al.one()).scale(coeff)
            for exps, coeff in self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, OrderedPoly):
            return NotImplemented
        if self.variables != other.variables:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())


def jackson(f, var):
    """Partial Jackson derivative of an OrderedPoly."""
    return f.jackson(var)


def jackson_element(f, var):
    """Jackson derivative on the internal basis (order is structural)."""
    return Element(_jackson_terms(f.terms, _VAR_SLOT[var]), _copy=False)


def _jackson_terms(terms, slot):
    """The Jackson derivative in the exponent at `slot` of a term dict."""
    out = {}
    for exps, coeff in terms.items():
        n = exps[slot]
        if n:
            al._acc(out, exps[:slot] + (n - 1,) + exps[slot + 1:],
                    coeff * sc.qnum_std(n))
    return out


def subst_xi_scale(f, plus=0, minus=0):
    """f with xi+ -> q^(2 plus) xi+ and xi- -> q^(2 minus) xi-."""
    return Element({key: c * sc.q_power(2 * (plus * key[0] + minus * key[1]))
                    for key, c in f.terms.items()}, _copy=False)


# -- the recursion oracle -------------------------------------------------------

_GEN_INDEX = {"x0": 0, "xm": 1, "xp": 2, "x3": 3}


@lru_cache(maxsize=None)
def _l_entries(gen):
    """L_{x_gen} as a 4x4 tuple of Elements."""
    mat = mx.l_matrix(gen)
    return tuple(tuple(mat.entries[i][j].try_clear() for j in range(4))
                 for i in range(4))


@lru_cache(maxsize=None)
def _oracle_word(word):
    """(gradient components as Elements, product Element) for a PBW word."""
    if not word:
        return ((al.zero(),) * 4, al.one())
    gen, rest = word[0], word[1:]
    comps_rest, el_rest = _oracle_word(rest)
    q1 = sc.q_power(1)
    accs = [sc.SumOfProducts() for _ in range(4)]
    for key, c in el_rest.terms.items():
        accs[_GEN_INDEX[gen]].add(key, c, sc.ONE)
    for acc, row in zip(accs, _l_entries(gen)):
        for lmn, comp in zip(row, comps_rest):
            if lmn and comp:
                al.mul_into(acc, lmn.scale(q1), comp)
    return (tuple(Element(acc.result(), _copy=False) for acc in accs),
            al.gen_element(gen) * el_rest)


def grad_oracle(f):
    """Gradient by the coproduct recursion over PBW words (ground truth)."""
    if isinstance(f, Localized):
        f = f.try_clear()
    accs = [sc.SumOfProducts() for _ in range(4)]
    for (n0, nm, np_, n3), coeff in al.to_pbw_x(f).items():
        word = ("x0",) * n0 + ("xm",) * nm + ("xp",) * np_ + ("x3",) * n3
        wcomps, _ = _oracle_word(word)
        for acc, comp in zip(accs, wcomps):
            for key, c in comp.terms.items():
                acc.add(key, c, coeff)
    return Gradient.of_elements(Element(acc.result(), _copy=False)
                                for acc in accs)


# -- the closed chain rule -------------------------------------------------------

@lru_cache(maxsize=None)
def _pi_nabla(sign):
    """Numerators of Pi+- nabla x0, as Elements; every component keeps
    its delta^1 denominator."""
    return tuple(x.num for x in mx.pi_nabla_x0(sign))


@lru_cache(maxsize=None)
def _pi_weighted(a, b):
    """delta (Pi+ q^(2a) + Pi- q^(2b)) as a 4x4 tuple of Elements.

    With delta Pi+- = (delta 1 +- (2/lambda)(L_{x0} - b))/2 this is
    ((q^(2a) + q^(2b))/2) delta 1 + ((q^(2a) - q^(2b))/lambda)(L_{x0} - b),
    built from the delta-free L_{x0}; for a = b it is q^(2a) delta 1.
    """
    qa, qb = sc.q_power(2 * a), sc.q_power(2 * b)
    off = (qa - qb) * sc.lambda_().inverse()
    diag = al.delta_element().scale((qa + qb) * sc.rational(1, 2)) - \
        mx.b_center().scale(off)
    return tuple(tuple(x.scale(off) + diag if i == j else x.scale(off)
                       for j, x in enumerate(row))
                 for i, row in enumerate(_l_entries("x0")))


def _spatial_gradient_mono(key, coeff):
    """Jackson-rule gradient of a single basis monomial's spatial word,
    keeping the central prefix; returns a 4-list of Elements."""
    a, b, c, d, e = key
    comps = [al.zero()] * 4
    if c:
        comps[2] = al.monomial(a, b, c - 1, d, e, coeff=coeff * sc.qnum_std(c))
    if d:
        el = al.monomial(a, b, c, d - 1, e, coeff=coeff * sc.qnum_std(d))
        comps[3], comps[0] = el, -el      # nabla x30 = e_3 - e_0
    if e:
        comps[1] = al.monomial(a, b, c, d, e - 1, coeff=coeff * sc.qnum_std(e))
    return comps


def grad_closed(f):
    """Gradient by the separated chain rule with partial Jackson derivatives.

    Input must be delta-free.  Components come back delta-localized; for
    elements of the coordinate algebra proper they clear (Gradient.cleared).
    """
    if isinstance(f, Localized):
        f = f.try_clear()
    accs = [sc.SumOfProducts() for _ in range(4)]   # numerators over delta^1
    pi_plus = _pi_nabla(+1)
    pi_minus = _pi_nabla(-1)
    for key, coeff in f.terms.items():
        a, b, c, d, e = key
        tail = al.monomial(0, 0, c, d, e)
        # central Jackson terms against nabla xi+- = Pi+- nabla x0
        if a:
            pref = al.monomial(a - 1, b, coeff=coeff * sc.qnum_std(a))
            for acc, pi in zip(accs, pi_plus):
                if pi:
                    al.mul_into(acc, pref * pi, tail)
        if b:
            pref = al.monomial(a, b - 1, coeff=coeff * sc.qnum_std(b))
            for acc, pi in zip(accs, pi_minus):
                if pi:
                    al.mul_into(acc, pref * pi, tail)
        # spatial Jackson terms, twisted by delta (Pi+ q^(2a) + Pi- q^(2b))
        spatial = _spatial_gradient_mono(key, coeff)
        if any(spatial):
            for acc, row in zip(accs, _pi_weighted(a, b)):
                for w, x in zip(row, spatial):
                    if w and x:
                        al.mul_into(acc, w, x)
    return Gradient(tuple(Localized(Element(acc.result(), _copy=False), 1)
                          for acc in accs))


def delta_correction(f):
    """The matrix-valued finite-difference correction

        delta f = Pi+ (f|_{xi+ -> q^2 xi+} - f) + Pi- (f|_{xi- -> q^2 xi-} - f),

    which vanishes in the classical limit."""
    pp, pm = mx.projectors()
    dplus = subst_xi_scale(f, plus=1) - f
    dminus = subst_xi_scale(f, minus=1) - f
    return pp * dplus + pm * dminus


# -- metric operations ------------------------------------------------------------

def raise_index(grad):
    """G_mu -> G^mu = eta^{mu nu} G_nu (componentwise scalar mixing)."""
    return _metric_mix(grad, mx.eta_upper())


def lower_index(grad):
    """G^mu -> G_mu = eta_{mu nu} G^nu."""
    return _metric_mix(grad, mx.eta_lower())


def _metric_mix(grad, eta):
    comps = [_LZERO] * 4
    for (mu, nu), coeff in eta.items():
        comps[mu] = comps[mu] + grad.components[nu] * coeff
    return Gradient(tuple(comps))


def contract_d_alembert(f, grad_fn=grad_closed):
    """The wave operator d_mu d^mu acting on f, via two gradients and the
    metric contraction sum_{mu nu} eta_{mu nu} d^nu (d^mu f)."""
    firsts = grad_fn(f).cleared()
    return al.add_all(grad_fn(firsts[mu]).cleared()[nu].scale(coeff)
                      for (mu, nu), coeff in mx.eta_lower().items()
                      if firsts[mu])
