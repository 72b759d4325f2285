import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qmink import algebra as al
from qmink import scalars as sc
from qmink import surface as sf
from qmink import waves as wv


def test_parse_basic():
    e = sf.parse_element("x0^2 + q*x3")
    assert e == al.gen_element("x0") ** 2 + \
        al.gen_element("x3").scale(sc.q_power(1))


def test_parse_tree_is_an_immutable_record():
    node = sf.parse("-2*x0^3 + q/(m+1)")
    assert repr(node) == (
        "Add(terms=((-1, Mul(factors=(Lit(value=Fraction(2, 1)), "
        "Pow(base=Gen(name='x0'), exponent=Fraction(3, 1))))), "
        "(1, Div(num=Sym(name='q'), den=Add(terms=((1, Sym(name='m')), "
        "(1, Lit(value=Fraction(1, 1)))))))))")
    assert node == sf.parse("-2*x0^3+q/(m+1)")
    assert node != sf.parse("-2*x0^3 + q/(m+2)")
    with pytest.raises(AttributeError):
        node.terms = ()


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
    assert sf.parse_element("x0/2") == sf.parse_element("x0").scale(
        sc.rational(1, 2))
    with pytest.raises(sf.ParseError):
        sf.parse_element("2/x0")


@pytest.mark.parametrize("text, want", [
    ("q^2/2", "((q^2)/(2))"), ("q^1/2", "((q)/(2))"),
    ("m^2/k", "((m^2)/(k))"), ("q^2/(q+1)", "((q^2)/(q + 1))"),
    ("(q+1)^2/(q^2+2*q+1)", "(1)"), ("q^(1/2)", "(q^(1/2))"),
    ("q^(-3/2)", "(q^(-3/2))"), ("x0/2", "((1)/(2)) * xi+ + ((1)/(2)) * xi-"),
    ("(x0+xm+xp)^5*m/(q+1)", None),
])
def test_division_after_a_power_and_of_an_element(text, want):
    if want is None:
        want = sf.element_to_str(sf.parse_element("m/(q+1)*(x0+xm+xp)^5"))
    assert sf.element_to_str(sf.parse_element(text)) == want


@pytest.mark.parametrize("text, message", [
    ("2/x0", "division is only defined between scalars"),
    ("x0/x0", "division is only defined between scalars"),
    ("x0/0", "division by zero"),
    ("q^(1/0)", "zero exponent denominator"),
])
def test_division_errors(text, message):
    with pytest.raises(sf.ParseError, match=message):
        sf.parse_element(text)


def test_half_exponents_on_q_only():
    assert sf.parse_scalar("q^(1/2)") == sc.s_power(1)
    assert sf.parse_scalar("q^(-3/2)") == sc.s_power(-3)
    for text in ("m^(1/2)", "(q+q^-1)^(1/2)", "(q+q^-1)^(-1/2)"):
        with pytest.raises(sf.ParseError, match="on q only"):
            sf.parse_scalar(text)


def test_negative_powers_of_q_invert_nothing(monkeypatch):
    calls = []
    inverse = sc.Scalar.inverse

    def counting(self):
        calls.append(1)
        return inverse(self)

    monkeypatch.setattr(sc.Scalar, "inverse", counting)
    el = sf.parse_element("(-4*q^(-1)) * xp * x0")
    x = sf.parse_scalar("q^-3")
    assert not calls
    monkeypatch.undo()
    assert el == (al.gen_element("xp") * al.gen_element("x0")).scale(
        sc.integer(-4) * sc.q_power(-1))
    assert x == sc.q_power(-3)


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


def _scalar_to_str_from_den(x):
    """scalar_to_str rendered from the dense `den`, as it was before the
    denominator text was kept per (c, split)."""
    nstr = sf._poly_str(x.num.items())
    if x.den == {(0, 0, 0): 1}:
        return f"({nstr})"
    dstr = sf._poly_str(((es, em, ek, 0, 0), v)
                        for (es, em, ek), v in x.den.items())
    return f"(({nstr})/({dstr}))"


def test_scalar_to_str_matches_the_dense_denominator():
    mk = sc.M + sc.K
    numerators = (sc.ONE, -sc.I * sc.M, sc.q_power(3) + sc.R)
    denominators = (sc.ONE, sc.integer(6), sc.M, sc.K * sc.integer(4),
                    mk, mk * mk * sc.integer(3), sc.qfactorial_std(7),
                    sc.qnum_std(5) * sc.qnum_std(12) * sc.M * sc.integer(10),
                    sc.two_q() * sc.lambda_() * mk,
                    sc.M + sc.q_power(1))
    for num in numerators:
        for den in denominators:
            x = num / den
            filled = x._den is not None
            text = sf.scalar_to_str(x)
            assert (x._den is not None) == filled     # printing leaves it
            assert text == _scalar_to_str_from_den(x), (num, den)
            assert sf.scalar_to_str(x * sc.ONE) == text
    assert sf._den_text(1, ()) == "1"


def test_zero_prints():
    assert sf.element_to_str(al.zero()) == "0"
    assert sf.parse_element("0").is_zero()
    assert sf.scalar_to_str(sc.ZERO) == "(0)"


# -- canonical reader -------------------------------------------------------

_DENOMINATORS = (sc.ONE, sc.lambda_(), sc.two_q(), sc.qnum_std(3),
                 sc.qfactorial_std(4), sc.M + sc.q_power(1))


@st.composite
def _scalars(draw):
    """Random Scalars over Q(s, m, k)[i, r] with cyclotomic and m-dependent
    denominators."""
    num = sc.ZERO
    for _ in range(draw(st.integers(1, 3))):
        num = num + (sc.integer(draw(st.integers(-5, 5)))
                     * sc.s_power(draw(st.integers(-5, 5)))
                     * sc.M ** draw(st.integers(0, 2))
                     * sc.K ** draw(st.integers(0, 2))
                     * sc.I ** draw(st.integers(0, 1))
                     * sc.R ** draw(st.integers(0, 1)))
    den = sc.ONE
    for _ in range(draw(st.integers(0, 2))):
        den = den * draw(st.sampled_from(_DENOMINATORS))
    return num / den


@st.composite
def _elements(draw):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        a, b, c, d, e = (draw(st.integers(0, 3)) for _ in range(5))
        terms.append(al.monomial(a, b, c, d, 0 if c else e,
                                 coeff=draw(_scalars())))
    return al.add_all(terms)


def _general(text):
    """parse_element through the tokenizer, parser and _eval alone."""
    v = sf._eval(sf.parse(text))
    return al.one().scale(v) if isinstance(v, sc.Scalar) else v


def _general_scalar(text):
    v = sf._eval(sf.parse(text))
    if isinstance(v, al.Element):
        raise sf.ParseError("expected a scalar expression")
    return v


@given(_elements())
@settings(max_examples=80, deadline=None)
def test_printed_elements_read_back(el):
    text = sf.element_to_str(el)
    back = sf.parse_element(text)
    assert back == el
    assert sf.element_to_str(back) == text
    assert sf.element_from_json(sf.element_to_json(el)) == el
    assert sf._read_element(text) == _general(text)


@given(_scalars())
@settings(max_examples=80, deadline=None)
def test_printed_scalars_read_back(x):
    text = sf.scalar_to_str(x)
    assert sf.parse_scalar(text) == x
    assert sf._read_scalar(text) == _general_scalar(text)


def test_printed_text_and_json_read_back_without_the_parser(monkeypatch):
    rng = random.Random(79)
    els = [_random_element(rng) for _ in range(30)]
    state = wv.massive_rest_state(n_max=6)
    els += [state.slice(d) for d in range(state.truncation + 1)]
    texts = [(el, sf.element_to_str(el), sf.element_to_json(el))
             for el in els]

    def no_tokens(text):
        raise AssertionError(f"printed text sent to the parser: {text!r}")
    monkeypatch.setattr(sf, "_tokenize", no_tokens)
    for el, text, blob in texts:
        assert sf.parse_element(text) == el
        assert sf.element_from_json(blob) == el
        for c in el.terms.values():
            assert sf.parse_scalar(sf.scalar_to_str(c)) == c


@pytest.mark.parametrize("text", [
    # generator powers past MAX_INPUT_DEGREE, and at it
    "(1) * xi+^65", "(1) * x30^65", "(2) * x-^100000", "(q) * xi-^64",
    # zero denominators
    "((1)/(0))", "((0)/(0))", "((q)/(q - q))",
    # factors out of order, repeated or both x+ and x-
    "(1) * x- * x+", "(1) * x+ * xi+", "(1) * x30 * x+", "(1) * x+ * x+",
    "(1) * x+ * x-", "(q) * xi+ * x+^2 * x-",
    # repeated term keys, cancelling terms, repeated monomials
    "(1) * x+ + (2) * x+", "(q) * x30 + (-q) * x30", "(1) + (q)",
    "(q + q - 2*q)", "((1 + 1)/(2 + 2))",
    # q exponents the printer never writes
    "(q^(1))", "(q^(1/3))", "(q^(2/2))", "(q^(1/0))", "(q^(-3/2))",
    "(q^-0)", "(m^(1/2))", "(i^2)", "(i*i)", "(r*r)", "(m^-1)",
    # i or r inside a denominator
    "((1)/(i))", "((1)/(r))", "((q)/(1 + i))", "((1)/(q*r + 1))",
    # leading minus signs
    "(-q)", "(-1 - q)", "((-q)/(-1 - q))", "(- q)", "(--q)", "(1 - -q)",
    "-(q)", "(-q) * x+",
    # trailing garbage, stray spaces and truncation
    "(1) * x+ +", "(1) * x+ junk", "(1))", "(1) * x+ + ", "(q)\n",
    "(1) x+", "(1) *x+", " (1)", "(1) + 0", "(1", "((1)/(2)", "", "0",
    "(0)", "((1)/(2))/(3)", "(q) * x+^", "(9" + "9" * 5000 + ")",
    # division after an unparenthesized exponent, and of an element
    "q^2/2", "q^1/2", "m^2/k", "q^2/(q+1)", "(q+1)^2/(q^2+2*q+1)",
    "(x0+xm+xp)^5*m/(q+1)", "x0/2", "2/x0", "x0/x0", "x0/0",
])
def test_reader_keeps_the_parser_limits(text):
    for read, general in ((sf.parse_element, _general),
                          (sf.parse_scalar, _general_scalar)):
        try:
            want = general(text)
        except ValueError as err:
            with pytest.raises(type(err)) as got:
                read(text)
            assert str(got.value) == str(err)
        else:
            assert read(text) == want


def _term(exponents, coefficient="(1)"):
    return json.dumps({"terms": [{"exponents": exponents,
                                  "coefficient": coefficient}]})


@pytest.mark.parametrize("blob", [
    _term([-1, 0, 0, 0, 0]),                 # negative exponent
    _term([0, 0, 1, 0, 1]),                  # both x+ and x-
    _term([0, 0, 1, 0]),                     # wrong exponent count
    _term([0, 0, 1, 0, 0], 1),               # coefficient not a string
    json.dumps({"term": []}),                # no "terms"
    "{terms: []",                            # not JSON
], ids=["negative", "xp-and-xm", "count", "coefficient", "no-terms",
        "not-json"])
def test_malformed_json_is_a_parse_error(blob):
    with pytest.raises(sf.ParseError):
        sf.element_from_json(blob)
