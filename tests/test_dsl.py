import pytest
from hypothesis import given, strategies as st

from rdistill import dsl
from rdistill.dsl import (ArgTypeError, ArityError, DivisionByZero, NonFinite,
                          ParseError, Program, execute, parse, print_program,
                          render_numeric)


class TestParse:
    def test_minimal(self):
        assert parse("Div(25, 5)") == Program("Div", (25.0, 5.0))

    def test_variadic(self):
        assert parse("Avg(1, 2, 3, 6)") == Program("Avg", (1.0, 2.0, 3.0, 6.0))

    def test_unknown_op(self):
        with pytest.raises(ParseError):
            parse("Foo(1, 2)")

    def test_arity(self):
        with pytest.raises(ArityError):
            parse("Greater(5)")
        with pytest.raises(ArityError):
            parse("Diff(1, 2, 3)")
        for source in ("Sum()", "Avg( )"):
            with pytest.raises(ArityError, match="takes at least 1 arg, got 0"):
                parse(source)

    def test_find_raw_text(self):
        assert parse("Find(the 2019 result)") == Program("Find", ("the 2019 result",))

    def test_whitespace_ignored(self):
        assert parse("  Sum( 1 ,2, 3 )  ") == Program("Sum", (1.0, 2.0, 3.0))

    def test_signs_and_decimals(self):
        assert parse("Diff(-1.5, +2)") == Program("Diff", (-1.5, 2.0))

    def test_percent_stripped_unscaled(self):
        assert parse("Div(25%, 5%)") == Program("Div", (25.0, 5.0))

    def test_thousands_separator_resolved_by_arity(self):
        # 3 naive args fail Div's arity; merging 1,234 resolves it
        assert parse("Div(1,234, 2)") == Program("Div", (1234.0, 2.0))

    def test_thousands_separator_ambiguous(self):
        # Sum accepts both [1, 234] and [1234]
        with pytest.raises(ParseError):
            parse("Sum(1,234)")

    def test_comma_before_short_group_is_separator(self):
        assert parse("Div(25,5)") == Program("Div", (25.0, 5.0))

    def test_non_numeric_arg(self):
        with pytest.raises(ArgTypeError):
            parse("Div(a, b)")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("Div(1, 2")


class TestExecute:
    @pytest.mark.parametrize("source,expected", [
        ("Div(25, 5)", 5.0),
        ("Avg(1, 2, 3, 6)", 3.0),
        ("Avg(2, 4)", 3.0),
        ("Sum(1, 2, 3)", 6.0),
        ("Diff(7, 2)", 5.0),
        ("Mul(3, 4)", 12.0),
    ])
    def test_numeric(self, source, expected):
        result = execute(parse(source))
        assert result.kind == "numeric"
        assert result.value == expected

    @pytest.mark.parametrize("source,expected", [
        ("Greater(10, 2)", "Yes"),
        ("Greater(2, 10)", "No"),
        ("Greater(3, 3)", "No"),  # strict comparison, ties are No
        ("Less(10, 2)", "No"),
        ("Less(2, 10)", "Yes"),
        ("Less(3, 3)", "No"),
    ])
    def test_boolean(self, source, expected):
        result = execute(parse(source))
        assert result.kind == "boolean"
        assert result.render() == expected

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            execute(parse("Div(1, 0)"))

    def test_find_passthrough(self):
        result = execute(parse("Find(France)"))
        assert result.kind == "passthrough"
        with pytest.raises(ValueError):
            result.render()


nice_numbers = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.decimals(min_value=-10**6, max_value=10**6, places=6,
                allow_nan=False, allow_infinity=False).map(float),
)

find_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "),
    min_size=1, max_size=30,
).filter(lambda s: s.strip() == s and s.strip("0123456789. ") != "")

programs = st.one_of(
    st.builds(lambda op, a, b: Program(op, (a, b)),
              st.sampled_from(["Div", "Mul", "Diff", "Greater", "Less"]),
              nice_numbers, nice_numbers),
    st.builds(lambda op, args: Program(op, tuple(args)),
              st.sampled_from(["Avg", "Sum"]),
              st.lists(nice_numbers, min_size=1, max_size=6)),
    st.builds(lambda t: Program("Find", (t,)), find_text),
)


@given(programs)
def test_parse_print_identity(program):
    assert parse(print_program(program)) == program


@given(st.lists(nice_numbers, min_size=1, max_size=6))
def test_avg_equals_sum_over_len(xs):
    avg = execute(Program("Avg", tuple(xs)))
    total = execute(Program("Sum", tuple(xs)))
    assert avg.value == total.value / len(xs)


@given(nice_numbers, nice_numbers)
def test_greater_less_duality(a, b):
    gt = execute(Program("Greater", (a, b)))
    lt = execute(Program("Less", (b, a)))
    assert gt.truth == lt.truth
    if a == b:
        assert gt.render() == "No" and lt.render() == "No"


class TestRenderNumeric:
    def test_integer(self):
        assert render_numeric(5.0) == "5"

    def test_rounding(self):
        assert render_numeric(3.1400001) == "3.14"

    def test_six_fractional_digits(self):
        assert render_numeric(0.333333333) == "0.333333"

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            render_numeric(float("inf"))

    def test_print_minimal_digits(self):
        assert print_program(Program("Sum", (1.50,))) == "Sum(1.5)"
        assert print_program(Program("Div", (25.0, 5.0))) == "Div(25, 5)"
