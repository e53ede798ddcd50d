"""Grammar round trips and parse errors."""

import random
from fractions import Fraction

import pytest

from phbochner.expr import DERIV_LETTERS, SYMBOLS, Expression, Factor
from phbochner.parser import Corpus, ParseError, parse
from phbochner.scalar import I, ScalarExact

from test_expr import coefficient, random_expression


def test_two_term_example():
    e = parse("f_{11} + i*A_{11}*f")
    terms = e.term_list()
    assert len(terms) == 2
    assert coefficient(e, (Factor("f", ("1", "1")),)) == ScalarExact(1)
    assert coefficient(e, (Factor("A11"), Factor("f"))) == I


def test_zero_parses_to_empty():
    assert parse("0").is_zero()
    assert parse("f - f").is_zero()


def test_base_index_alias():
    assert parse("A_{11}") == parse("A11")
    assert parse("E_{b1b1}_{10}") == parse("Eb1b1_{10}")


def test_tworeal_expansion():
    e = parse("2Re[ i*A11*f ]")
    assert e == parse("i*A11*f - i*Ab1b1*f")


def test_int_wrapper_and_scalars():
    e = parse("INT[ ((s3 + i)/2)*A11_{bb}*f*f ]")
    assert e.integrated
    coeff = coefficient(e, (Factor("A11", ("b", "b")), Factor("f"), Factor("f")),
                        integrated=True)
    assert coeff == (ScalarExact(0, 1) + I) / 2


def test_zero_adds_to_an_integral():
    # zero, the empty sum, is plain and adds to an integral
    integral = parse("INT[f]")
    assert Expression.zero() + integral == integral
    assert parse("0 + INT[f]") == integral
    assert parse("INT[f] - INT[f]") == Expression.zero()


def test_integral_of_a_scalar_prints_as_one():
    for text in ("INT[2 + f]", "INT[-(1 + i)]", "INT[1]"):
        e = parse(text)
        assert e.integrated and parse(str(e)) == e, str(e)
    assert str(parse("INT[2 + f]")) == "INT[2] + INT[f]"


def test_scalar_times_integral_stays_integrated():
    # a factor outside the brackets that is a number scales the integral
    for text, inside in (("2*INT[f*f]", "INT[2*f*f]"),
                         ("INT[f*f]*3", "INT[3*f*f]")):
        e = parse(text)
        assert e.integrated and e == parse(inside)


def test_parse_print_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        e = random_expression(rng, nterms=4)
        assert parse(str(e)) == e
        assert parse(str(e.integrate())) == e.integrate()


def test_corpus_roundtrip():
    corpus = Corpus.load()
    exprs = []
    for rec, fields in corpus.records.items():
        for fld, text in fields.items():
            if fld == "latex":
                continue
            # a substitution "X = text, ..." holds expression texts
            exprs += [parse(side) for pair in text.split(",")
                      for side in pair.split("=")]
    assert exprs
    for e in exprs:
        # print o parse is the identity on ASTs, and printing is canonical
        s = str(e)
        assert parse(s) == e
        assert str(parse(s)) == s


@pytest.mark.parametrize("text", [
    "f +* A11",
    "unknownsym",
    "A",              # base indices required
    "A_{12}",
    "f_{2}",
    "INT[ INT[ f ] ]",
    "f / A11",
    "(f",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_cache_keeps_no_errors():
    text = "f_{11} + i*A_{11}*f"
    assert parse(text) is parse(text)
    # a cached error would be a hit, or an entry, after its first call
    before = parse.cache_info()
    for _ in range(3):
        with pytest.raises(ParseError):
            parse("f + zzz")
    after = parse.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


def test_error_position_reported():
    with pytest.raises(ParseError) as err:
        parse("f + zzz")
    assert "position 4" in str(err.value)
    # an arithmetic error is reported at its operator
    for text, position in [("f/(g)", 1), ("INT[f]*g", 6), ("INT[f] + f", 7),
                           ("f - INT[f]", 2)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text


def test_division_by_scalar_expression():
    assert parse("A11 / 2") == parse("(1/2)*A11")
    assert parse("A11 / (1 - i)") * parse("1 - i") == parse("A11")
    # products of numbers, i, s3 and factors collect as one term
    for text, same in [("(2*f)*(3*g)", "6*f*g"), ("-(-f)", "f"),
                       ("i*i*f", "-f"), ("s3*s3*f", "3*f"),
                       ("(1/2)/(1/4)*f", "2*f"), ("f/(2*i)", "(-1/2)*i*f")]:
        assert parse(text) == parse(same), text


# ---------------------------------------------------------------------------
# fuzzing: derandomized and bounded
# ---------------------------------------------------------------------------

def _fuzz(strategy, check, examples):
    hyp = pytest.importorskip("hypothesis")
    hyp.settings(max_examples=examples, deadline=None, derandomize=True,
                 database=None)(hyp.given(strategy)(check))()


def _expressions():
    st = pytest.importorskip("hypothesis").strategies
    comp = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    coeff = st.builds(ScalarExact, comp, comp, comp, comp)
    factor = st.builds(Factor, st.sampled_from(sorted(SYMBOLS)),
                       st.lists(st.sampled_from(DERIV_LETTERS), max_size=3)
                       .map(tuple))
    term = st.tuples(coeff, st.lists(factor, max_size=3))
    # one flag per expression; an integral's scalar term prints as INT[c]
    return st.builds(lambda terms, integ: Expression.sum(
        Expression.from_term(c, fs, integ) for c, fs in terms),
        st.lists(term, max_size=5), st.booleans())


def test_print_parse_roundtrip_fuzzed():
    def check(e):
        assert parse(str(e)) == e
    _fuzz(_expressions(), check, 100)


# pieces of the grammar, valid and not, that random text rarely hits
_TOKENS = ["f", "R", "A11", "Ab1b1", "Eb1b1", "Q11", "gb", "A", "E", "_{11}",
           "_{b1b1}", "_{1b0}", "_{}", "_{2}", "i", "s3", "INT[", "2Re[", "[",
           "]", "(", ")", "+", "-", "*", "/", "0", "1", "12", " ", "x", "_{"]


def test_arbitrary_text_raises_only_parse_error():
    st = pytest.importorskip("hypothesis").strategies

    def check(text):
        try:
            assert isinstance(parse(text), Expression)
        except ParseError:
            pass
    _fuzz(st.one_of(st.text(max_size=30),
                    st.lists(st.sampled_from(_TOKENS), max_size=20)
                    .map("".join)), check, 300)
