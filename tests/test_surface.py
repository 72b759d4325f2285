import random

import pytest
from hypothesis import given, settings, strategies as st

from qmink import algebra as al
from qmink import scalars as sc
from qmink import surface as sf


def test_parse_basic():
    e = sf.parse_element("x0^2 + q*x3")
    assert e == al.gen_element("x0") ** 2 + \
        al.gen_element("x3").scale(sc.q_power(1))


def test_parse_noncommutative_order():
    assert sf.parse_element("xm*xp") != sf.parse_element("xp*xm")
    assert sf.parse_element("xm * xp") == \
        al.gen_element("xm") * al.gen_element("xp")


def test_negative_generator_exponent_rejected():
    with pytest.raises(sf.ParseError):
        sf.parse_element("x0^-1")
    with pytest.raises(sf.ParseError):
        sf.parse_element("xm^(-2)")


def test_division_only_for_scalars():
    assert sf.parse_scalar("(q + q^-1)") == sc.two_q()
    assert sf.parse_scalar("1/2") == sc.rational(1, 2)
    with pytest.raises(sf.ParseError):
        sf.parse_element("x0/2")
    with pytest.raises(sf.ParseError):
        sf.parse_element("2/x0")


def test_half_exponents_on_q_only():
    assert sf.parse_scalar("q^(1/2)") == sc.s_power(1)
    assert sf.parse_scalar("q^(-3/2)") == sc.s_power(-3)
    with pytest.raises(sf.ParseError):
        sf.parse_scalar("m^(1/2)")


@pytest.mark.parametrize("text", ["x0 * (xm", "x0 +", "x0^", "x0^(2", ""])
def test_truncated_input_is_reported_as_such(text):
    with pytest.raises(sf.ParseError, match="unexpected end of input"):
        sf.parse_element(text)


def test_exponent_bound():
    top = sf.MAX_INPUT_DEGREE
    assert sf.parse_element(f"xp^{top}") == sf.parse_element("xp") ** top
    for text in (f"xp^{top + 1}", "xp^100000", f"(1 + q)^{top + 1}",
                 f"(q * x0)^{top + 1}", f"2^{top + 1}", f"r^{top + 1}",
                 f"(1/(1 + q))^-{top + 1}"):
        with pytest.raises(sf.ParseError, match="exceeds the limit"):
            sf.parse_element(text)
    with pytest.raises(sf.ParseError, match="zero exponent denominator"):
        sf.parse_scalar("q^(1/0)")


def test_monomial_powers_are_not_bounded():
    # the printed 1/[[n]]! carries q^(n(n-1)), far above the bound
    assert sf.parse_scalar("q^240") == sc.q_power(240)
    assert sf.parse_scalar("q^(-100001/2)") == sc.s_power(-100001)
    assert sf.parse_scalar("(q*m)^-100") == (sc.q_power(1) * sc.M) ** -100
    assert sf.parse_scalar("(-i*k)^101") == (-sc.I * sc.K) ** 101
    assert sf.parse_scalar("(q^-1)^90") == sc.q_power(-90)


def test_syntax_error_position():
    with pytest.raises(sf.ParseError):
        sf.parse_element("x0 + ")
    with pytest.raises(sf.ParseError):
        sf.parse_element("x0 ) x3")
    with pytest.raises(sf.ParseError):
        sf.parse_element("x0 # x3")


def test_unicode_aliases_accepted_never_emitted():
    e = sf.parse_element("ξ+ + ξ-")
    assert e == al.x0_element()
    text = sf.element_to_str(e)
    assert "ξ" not in text
    assert sf.parse_element(text) == e


def test_surface_tags():
    assert sf.parse_element("xip") == al.monomial(a=1)
    assert sf.parse_element("xim") == al.monomial(b=1)
    assert sf.parse_element("xsq") == al.xsq_element()
    assert sf.parse_element("x30") == al.monomial(d=1)
    assert sf.parse_element("x+") == sf.parse_element("xp")
    assert sf.parse_element("xi-") == sf.parse_element("xim")


def _random_element(rng, deg=4, nterms=3):
    acc = al.zero()
    for _ in range(nterms):
        d = rng.randint(0, deg)
        word = tuple(rng.choice(al.SURFACE_GENS) for _ in range(d))
        coeff = sc.integer(rng.randint(-3, 3)) * \
            sc.q_power(rng.randint(-2, 2))
        acc = acc + al.from_surface_word(word).scale(coeff)
    return acc


def test_print_parse_round_trip_bulk():
    rng = random.Random(71)
    for _ in range(1000):
        el = _random_element(rng)
        assert sf.parse_element(sf.element_to_str(el)) == el


def test_json_round_trip_bit_exact():
    rng = random.Random(73)
    for _ in range(50):
        el = _random_element(rng)
        blob = sf.element_to_json(el)
        back = sf.element_from_json(blob)
        assert back == el
        assert sf.element_to_json(back) == blob


@given(st.integers(-8, 8), st.integers(1, 5), st.integers(-3, 3),
       st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_scalar_string_round_trip(n, d, es, em, ei, er):
    val = sc.rational(n, d) * sc.s_power(es) * sc.M ** em * \
        sc.I ** ei * sc.R ** er + sc.lambda_() * sc.two_q().inverse()
    text = sf.scalar_to_str(val)
    back = sf.parse_scalar(text)
    assert back == val
    assert sf.scalar_to_str(back) == text


def test_zero_prints():
    assert sf.element_to_str(al.zero()) == "0"
    assert sf.parse_element("0").is_zero()
    assert sf.scalar_to_str(sc.ZERO) == "(0)"
