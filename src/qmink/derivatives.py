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

  `grad_closed` is one loop: each term takes one Jackson step per
  nonzero exponent, and the lowered monomial is multiplied by that
  slot's vector of numerators over delta = xi+ - xi-, all read from the
  delta-free Element matrix `matrices.pi_weighted`: Pi+- nabla x0
  (column 0 of delta Pi+-, `_pi_nabla`) for xi+-, and
  delta (Pi+ q^{2a} + Pi- q^{2b}) on e_+, e_3 - e_0 or e_- (`_pi_column`)
  for x+, x30, x-.  Each component's numerator is summed over delta^1
  and divided by delta once, when its `Localized` is built.  The central
  prefix commutes past the projectors, so it rides on the monomial and
  is never multiplied by Pi+- on its own.

Each Jackson step (`_jackson_step`) multiplies its coefficient by [[n]]
through `scalars.mul_qnum_std`: the factors Phi_d of [[n]] are known, so
those the coefficient's denominator holds cancel from its split and the
others multiply its numerator, with no trial division.

Both gradients sum, then reduce.  Each component is a
`scalars.SumOfProducts` fed by `algebra.mul_into`: the coefficient
products of a term are multiplied out without normalizing, grouped by
their denominator, and each group is reduced once, when the component is
built.  The oracle folds the unit q into the L entries, which are
Elements, once per generator (`_q_l_entries`), and sums both its
recursion and its outer sum over PBW words this way.

The wave operator `contract_d_alembert` takes two gradients and contracts
them with the metric; `contract_gradient` does the same from a first
gradient already at hand, as the wave checks of `waves` share it.

All index vectors are in the four-vector order (0, -, +, 3).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from . import scalars as sc

from . import algebra as al
from .algebra import Element, Localized
from . import matrices as mx

__all__ = [
    "Gradient", "OrderedPoly", "jackson_element",
    "grad_oracle", "grad_closed", "delta_correction",
    "raise_index", "lower_index", "contract_d_alembert",
    "contract_gradient", "subst_xi_scale",
]


class Gradient:
    """(nabla f)^mu for mu in (0, -, +, 3), as Localized components
    (immutable)."""

    __slots__ = ("components",)
    __hash__ = None

    def __init__(self, components):
        if len(components) != 4:
            raise ValueError("gradient has four components")
        object.__setattr__(self, "components", components)

    def __setattr__(self, *a):
        raise AttributeError("Gradient is immutable")

    def __repr__(self):
        return f"Gradient(components={self.components!r})"

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


def jackson_element(f, var):
    """Jackson derivative on the internal basis (order is structural)."""
    return Element(_jackson_terms(f.terms, _VAR_SLOT[var]), _copy=False)


def _jackson_terms(terms, slot):
    """The Jackson derivative in the exponent at `slot` of a term dict."""
    out = {}
    for exps, coeff in terms.items():
        if exps[slot]:
            al._acc(out, *_jackson_step(exps, coeff, slot))
    return out


def _jackson_step(exps, coeff, slot):
    """One Jackson step at `slot` of a term with exps[slot] = n > 0:
    (exps with n -> n - 1, coeff * [[n]])."""
    n = exps[slot]
    return exps[:slot] + (n - 1,) + exps[slot + 1:], sc.mul_qnum_std(coeff, n)


def subst_xi_scale(f, plus=0, minus=0):
    """f with xi+ -> q^(2 plus) xi+ and xi- -> q^(2 minus) xi-."""
    return Element({key: c * sc.q_power(2 * (plus * key[0] + minus * key[1]))
                    for key, c in f.terms.items()}, _copy=False)


# -- the recursion oracle -------------------------------------------------------

_GEN_INDEX = {"x0": 0, "xm": 1, "xp": 2, "x3": 3}


@lru_cache(maxsize=None)
def _l_entries(gen):
    """L_{x_gen} as a 4x4 tuple of Elements."""
    return mx.l_matrix(gen).entries


@lru_cache(maxsize=None)
def _q_l_entries(gen):
    """q L_{x_gen}, the factor of the oracle's recursion, as _l_entries."""
    q1 = sc.q_power(1)
    return tuple(tuple(x.scale(q1) for x in row) for row in _l_entries(gen))


@lru_cache(maxsize=None)
def _oracle_word(word):
    """(gradient components as Elements, product Element) for a PBW word."""
    if not word:
        return ((al.zero(),) * 4, al.one())
    gen, rest = word[0], word[1:]
    comps_rest, el_rest = _oracle_word(rest)
    accs = [sc.SumOfProducts() for _ in range(4)]
    for key, c in el_rest.terms.items():
        accs[_GEN_INDEX[gen]].add(key, c, sc.ONE)
    for acc, row in zip(accs, _q_l_entries(gen)):
        for lmn, comp in zip(row, comps_rest):
            if lmn and comp:
                al.mul_into(acc, lmn, comp)
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
    """Numerators of Pi+- nabla x0 = Pi+- e_0 over delta^1, as Elements:
    column 0 of delta Pi+- (`matrices.pi_weighted`)."""
    weights = (sc.ONE, sc.ZERO) if sign > 0 else (sc.ZERO, sc.ONE)
    return tuple(row[0] for row in mx.pi_weighted(*weights).entries)


@lru_cache(maxsize=None)
def _pi_weighted(a, b):
    """delta (Pi+ q^(2a) + Pi- q^(2b)) as a 4x4 tuple of Elements
    (`matrices.pi_weighted`)."""
    return mx.pi_weighted(sc.q_power(2 * a), sc.q_power(2 * b)).entries


@lru_cache(maxsize=None)
def _pi_column(slot, a, b):
    """delta (Pi+ q^(2a) + Pi- q^(2b)) nabla x for the spatial variable x
    at `slot`: nabla x+ = e_+, nabla x30 = e_3 - e_0, nabla x- = e_-."""
    rows = _pi_weighted(a, b)
    if slot == 3:
        return tuple(row[3] - row[0] for row in rows)
    col = 2 if slot == 2 else 1
    return tuple(row[col] for row in rows)


def grad_closed(f):
    """Gradient by the separated chain rule with partial Jackson derivatives.

    Input must be delta-free.  Components come back delta-localized; for
    elements of the coordinate algebra proper they clear (Gradient.cleared).
    """
    if isinstance(f, Localized):
        f = f.try_clear()
    accs = [sc.SumOfProducts() for _ in range(4)]   # numerators over delta^1
    central = (_pi_nabla(+1), _pi_nabla(-1))
    for key, coeff in f.terms.items():
        for slot, n in enumerate(key):
            if not n:
                continue
            vec = central[slot] if slot < 2 else \
                _pi_column(slot, key[0], key[1])
            low, c = _jackson_step(key, coeff, slot)
            mono = Element({low: c}, _copy=False)
            for acc, x in zip(accs, vec):
                if x:
                    al.mul_into(acc, x, mono)
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
    """G_mu -> G^mu = eta^{mu nu} G_nu (componentwise scalar mixing).

    The metric is its own inverse, so lowering is the same map;
    `lower_index` is an alias of this function."""
    comps = [_LZERO] * 4
    for (mu, nu), coeff in mx.eta_upper().items():
        comps[mu] = comps[mu] + grad.components[nu] * coeff
    return Gradient(tuple(comps))


lower_index = raise_index


def contract_d_alembert(f):
    """The wave operator d_mu d^mu acting on f, via two closed gradients
    and the metric contraction sum_{mu nu} eta_{mu nu} d^nu (d^mu f)."""
    return contract_gradient(grad_closed(f))


def contract_gradient(first):
    """d_mu d^mu f from the first gradient `first` of f: the second
    gradients and the contraction of `contract_d_alembert`."""
    firsts = first.cleared()
    return al.add_all(grad_closed(firsts[mu]).cleared()[nu].scale(coeff)
                      for (mu, nu), coeff in mx.eta_lower().items()
                      if firsts[mu])
