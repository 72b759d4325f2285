import math
from fractions import Fraction

import pytest

from qmink import algebra as al
from qmink import derivatives as dv
from qmink import scalars as sc
from qmink import verify as vf
from qmink import waves as wv


def test_qexp_of_zero_is_one():
    series = wv.qexp(al.zero(), 5)
    assert series.slice(0) == al.one()
    assert all(series.slice(d).is_zero() for d in range(1, 6))


def test_qexp_jackson_eigenfunction():
    c = sc.I * sc.K
    series = wv.qexp(al.monomial(d=1, coeff=c), 8)
    for d in range(1, 9):
        lhs = dv.jackson_element(series.slice(d), "x30")
        assert lhs == series.slice(d - 1).scale(c)


@pytest.mark.parametrize("z", [al.monomial(a=1, coeff=sc.I * sc.M),
                               al.monomial(d=1, coeff=-sc.I * sc.K),
                               al.monomial(e=1, coeff=sc.rational(2, 3))])
def test_qexp_slices_scale_by_the_inverse_factorial(z):
    series = wv.qexp(z, 12)
    power = al.one()
    for n in range(13):
        assert series.slice(n) == power.scale(sc.qfactorial_std(n).inverse())
        power = power * z


def test_qexp_classical_limit():
    series = wv.qexp(al.monomial(d=1), 6)
    for n in range(7):
        ((_, coeff),) = series.slice(n).terms.items()
        assert coeff.subst_classical().as_fraction() == \
            Fraction(1, math.factorial(n))


def test_qexp_rejects_nonlinear_argument():
    with pytest.raises(ValueError):
        wv.qexp(al.monomial(d=2), 4)
    with pytest.raises(ValueError):
        wv.qexp(al.x0_element(), 4)   # two monomials


def test_massless_state_verifies():
    psi = wv.massless_state(n_max=12)
    report = wv.verify_massless(psi)
    assert report.ok and report.degrees_checked == 11


def test_massless_component_signs():
    # d^0 psi = i k psi, d^3 psi = -i k psi, d^+- psi = 0
    psi = wv.massless_state(n_max=4)
    ik = sc.I * sc.K
    for d in range(1, 4):
        grad = dv.grad_closed(psi.slice(d)).cleared()
        assert grad[0] == psi.slice(d - 1).scale(ik)
        assert grad[3] == psi.slice(d - 1).scale(-ik)
        assert grad[1].is_zero() and grad[2].is_zero()


def test_massive_state_verifies():
    phi = wv.massive_rest_state(n_max=10)
    report = wv.verify_massive(phi)
    assert report.ok and report.degrees_checked == 9


def test_separated_factor_equations():
    # each factor solves its own Jackson equation d_{q^2} psi_pm = i m psi_pm
    im = sc.I * sc.M
    plus = wv.qexp(al.monomial(a=1, coeff=im), 8)
    minus = wv.qexp(al.monomial(b=1, coeff=im), 8)
    for d in range(1, 9):
        assert dv.jackson_element(plus.slice(d), "xip") == \
            plus.slice(d - 1).scale(im)
        assert dv.jackson_element(minus.slice(d), "xim") == \
            minus.slice(d - 1).scale(im)


def test_massive_state_symmetric_in_xi():
    phi = wv.massive_rest_state(n_max=8)
    for d in range(9):
        terms = phi.slice(d).terms
        for (a, b, c, dd, e), coeff in terms.items():
            assert (c, dd, e) == (0, 0, 0)
            assert coeff == terms[(b, a, c, dd, e)]


def test_massive_klein_gordon():
    phi = wv.massive_rest_state(n_max=8)
    report = wv.verify_klein_gordon(phi)
    assert report.ok


def test_rest_state_two_phrasings_agree():
    # p_0 psi = m psi  <=>  d^0 psi = i m psi (and lowered components match)
    phi = wv.massive_rest_state(n_max=6)
    im = sc.I * sc.M
    for d in range(1, 6):
        upper = dv.grad_closed(phi.slice(d))
        lower = dv.lower_index(upper)
        up = upper.cleared()
        low = lower.cleared()
        assert up[0] == phi.slice(d - 1).scale(im)
        # eta_00 = 1, so the lowered time component agrees
        assert low[0] == up[0]
        assert all(up[mu].is_zero() for mu in (1, 2, 3))
        assert all(low[mu].is_zero() for mu in (1, 2, 3))


def test_square_root_cancellation():
    phi = wv.massive_rest_state(n_max=10)
    for d in range(11):
        expansion = wv.central_alpha_expansion(phi.slice(d))
        assert all(alpha_exp % 2 == 0 for _, alpha_exp in expansion)


def test_alpha_expansion_detects_odd_parts():
    expansion = wv.central_alpha_expansion(al.monomial(a=1))
    assert any(alpha_exp % 2 for _, alpha_exp in expansion)


def _alpha_expansion_term_by_term(el):
    """The expansion with one reduced product and one sum per (u, v)."""
    half = sc.rational(1, 2)
    out = {}
    for (a, b, _, _, _), coeff in el.terms.items():
        base = coeff * half ** (a + b)
        for u in range(a + 1):
            for v in range(b + 1):
                al._acc(out, (u + v, (a - u) + (b - v)),
                        base * sc.integer(math.comb(a, u) * math.comb(b, v)
                                          * (-1) ** (b - v)))
    return out


def _assert_same_expansion(el):
    got = wv.central_alpha_expansion(el)
    want = _alpha_expansion_term_by_term(el)
    assert got.keys() == want.keys()
    assert all(got[key] == want[key] for key in want)


@pytest.mark.parametrize("m", [sc.M, sc.rational(2, 3)])
def test_alpha_expansion_values_on_massive_slices(m):
    phi = wv.massive_rest_state(m=m, n_max=8)
    for d in range(9):
        _assert_same_expansion(phi.slice(d))


def test_alpha_expansion_values_drop_vanishing_sums():
    # xi+ xi- = (x0^2 - alpha^2)/4: the x0 alpha sum vanishes
    assert wv.central_alpha_expansion(al.monomial(a=1, b=1)).keys() == \
        {(2, 0), (0, 2)}
    el = al.monomial(a=1, b=1, coeff=sc.M) + \
        al.monomial(a=3, coeff=sc.I * sc.R / sc.lambda_()) + \
        al.monomial(a=2, b=1, coeff=sc.qnum_std(3).inverse()) - \
        al.monomial(a=1, b=2, coeff=sc.K)
    _assert_same_expansion(el)


def test_zero_mass_degenerate():
    phi = wv.massive_rest_state(m=sc.ZERO, n_max=4)
    assert phi.slice(0) == al.one()
    assert wv.verify_massive(phi, m=sc.ZERO).ok
    assert wv.verify_klein_gordon(phi, m=sc.ZERO).ok


def test_failure_report_carries_degree():
    # a deliberately wrong state fails at the first inconsistent degree
    bad = wv.TruncatedSeries((al.one(), al.monomial(d=1), al.monomial(d=2)), 2)
    report = wv.verify_massless(bad)
    assert not report.ok
    assert report.first_failure == 1
    assert report.residual is not None



def test_massless_failure_counts_only_the_degrees_before_it():
    # a failure at slice d reports what a pass over slices 0..d-1 would
    psi = wv.massless_state(n_max=6)
    slices = list(psi.slices)
    slices[3] = slices[3].scale(sc.integer(2))
    report = wv.verify_massless(wv.TruncatedSeries(tuple(slices), 6))
    assert (report.ok, report.first_failure) == (False, 3)
    assert report.degrees_checked == 1


def test_klein_gordon_failure_counts_only_the_degrees_before_it():
    phi = wv.massive_rest_state(n_max=6)
    slices = list(phi.slices)
    slices[4] = slices[4] + al.monomial(a=2, b=2)
    report = wv.verify_klein_gordon(wv.TruncatedSeries(tuple(slices), 6))
    assert (report.ok, report.first_failure) == (False, 4)
    assert report.degrees_checked == 1


# grad xi+ keeps a delta^1 denominator: a failing report, not an exception
_UNDIVIDED = wv.TruncatedSeries((al.one(), al.monomial(a=1)), 1)


def _assert_fails_on_the_undivided_slice(report):
    assert not report.ok and report.first_failure == 1
    assert isinstance(report.residual, al.Localized)
    assert report.residual.dpow > 0


def test_undivided_delta_fails_the_massive_check():
    _assert_fails_on_the_undivided_slice(wv.verify_massive(_UNDIVIDED))


def test_undivided_delta_fails_the_klein_gordon_check():
    _assert_fails_on_the_undivided_slice(wv.verify_klein_gordon(_UNDIVIDED))


def test_shared_denominators_survive_a_solve():
    # a split Scalar's den is the cached product of its split when its
    # constant term is 1: reading and printing them must leave the cache
    # as built
    state = wv.massive_rest_state(sc.M, 8)
    assert wv.verify_massive(state, sc.M).ok
    assert wv.verify_klein_gordon(state, sc.M).ok
    for sl in state.slices:
        for c in sl.terms.values():
            assert c.den
            repr(c)
    assert sc._DEN_ONE == {(0, 0, 0): 1}
    assert sc._PRODUCTS[()] is sc._DEN_ONE
    for split, product in sc._PRODUCTS.items():
        dense = sc._phi_product(tuple((d, e) for d, e in split if d > 0))
        want = {(es, 0, 0): v * dense[0] for es, v in enumerate(dense) if v}
        for f, e in split:
            for _ in range(e if f < 0 else 0):
                want = sc._dmul(want, sc._FACTORS[f])
        assert product == want


def _record_grad_closed(monkeypatch):
    """Wrap the module's grad_closed, which TruncatedSeries.gradient calls;
    returns the list of the arguments of its calls."""
    real, calls = dv.grad_closed, []

    def recording(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(dv, "grad_closed", recording)
    return calls


def _slice_calls(calls, series):
    return sum(any(f is sl for sl in series.slices) for f in calls)


def test_eigenvalue_and_klein_gordon_checks_share_first_gradients(monkeypatch):
    fresh = wv.massive_rest_state(n_max=4)
    want = [wv.verify_massive(fresh),
            wv.verify_klein_gordon(wv.TruncatedSeries(fresh.slices, 4))]
    assert [(r.ok, r.degrees_checked) for r in want] == [(True, 3), (True, 2)]
    calls = _record_grad_closed(monkeypatch)
    phi = wv.massive_rest_state(n_max=4)
    assert [wv.verify_massive(phi), wv.verify_klein_gordon(phi)] == want
    assert _slice_calls(calls, phi) == 5     # one per slice, not two
    # the kept gradients are no part of the value
    assert phi == fresh and "_grads" not in repr(phi)
    # a new series keeps its own gradients
    psi = phi.scale(sc.integer(2))
    assert [wv.verify_massive(psi), wv.verify_klein_gordon(psi)] == want
    assert _slice_calls(calls, psi) == 5


def test_verify_report_is_an_immutable_record():
    report = wv.VerifyReport("check", True, 3)
    assert report == wv.VerifyReport("check", True, 3, None, None)
    assert report != wv.VerifyReport("check", False, 3)
    assert report != wv.VerifyReport("check", True, 4)
    assert wv.VerifyReport("check", True) == \
        wv.VerifyReport("check", True, None, None, None)
    assert repr(report) == (
        "VerifyReport(name='check', ok=True, degrees_checked=3, "
        "first_failure=None, residual=None)")
    assert str(report) == "check: pass through degree 3"
    failed = wv.VerifyReport("check", False, 2, 3, "x0")
    assert str(failed) == "check: FAIL at degree 3 (residual 'x0')"
    for field in ("name", "ok", "degrees_checked", "residual"):
        with pytest.raises(AttributeError):
            setattr(report, field, None)


def test_solutions_name_their_reports():
    assert [r.name for r in vf.solutions()] == [
        "massless state (N=12)", "massive rest state (N=10)",
        "quantum Klein-Gordon equation",
        "square root drops out of the rest state"]


def test_truncated_series_is_immutable_and_its_memo_no_part_of_its_value():
    series = wv.qexp(al.monomial(d=1), 3)
    fresh = wv.qexp(al.monomial(d=1), 3)
    series.gradient(2)
    assert series == fresh and repr(series) == repr(fresh)
    assert repr(series) == (f"TruncatedSeries(slices={series.slices!r}, "
                            f"truncation=3)")
    assert series != wv.qexp(al.monomial(d=1), 2)
    for field in ("slices", "truncation", "_grads"):
        with pytest.raises(AttributeError):
            setattr(series, field, None)
    with pytest.raises(ValueError):
        wv.TruncatedSeries((al.one(),), 1)
