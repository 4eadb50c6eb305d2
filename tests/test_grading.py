"""Monomial parsing, monomial ideals, and graded piece dimensions."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (
    CechProblem,
    ContractError,
    InputError,
    MonomialIdeal,
    PrimeField,
    monomial_divides,
    monomial_mul,
    parse_monomial,
    product_sequence,
    piece_pattern,
    support_mask,
)
from cechmv import cli
from conftest import format_monomial, window_degrees, zero_ideal
from reference_pieces import localized_piece_dim


def test_parse_monomial_basics():
    assert parse_monomial("x1^2*x3", 3) == (2, 0, 1)
    assert parse_monomial("x2", 2) == (0, 1)
    assert parse_monomial("1", 4) == (0, 0, 0, 0)
    assert parse_monomial("x1 * x1", 1) == (2,)
    assert parse_monomial("x2^3*x2", 2) == (0, 4)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty monomial"),
        ("zebra", "zebra"),
        ("x1^", "'x1\\^'"),
        ("x0", "out of range"),
        ("x3", "out of range"),
        ("x1**x2", "unparsable"),
        ("x1^-2", "unparsable"),
    ],
)
def test_parse_monomial_errors_name_the_token(text, msg):
    with pytest.raises(InputError, match=msg):
        parse_monomial(text, 2)


def test_space_inside_a_factor_is_refused():
    # spaces around a factor are dropped, never joined across: "x1 2" is not x12
    assert parse_monomial(" x1 * x12 ", 12) == (1,) + (0,) * 10 + (1,)
    assert parse_monomial(" 1 ", 12) == (0,) * 12
    with pytest.raises(InputError, match="unparsable monomial factor: 'x1 2'"):
        parse_monomial("x1 2", 12)


@pytest.mark.parametrize("text", [
    "x\u0661",        # ARABIC-INDIC DIGIT ONE
    "x1^\u0663",      # ARABIC-INDIC DIGIT THREE
    "x1^\uff13",      # FULLWIDTH DIGIT THREE
    "x\U0001d7d9",    # MATHEMATICAL DOUBLE-STRUCK DIGIT ONE
    "x1\n",
    "x2*x1\n",
])
def test_monomials_take_ascii_digits_only(tmp_path, text):
    with pytest.raises(InputError, match="unparsable"):
        parse_monomial(text, 3)
    job = {"field": {"prime": 5}, "variables": 3, "groups": [[text]], "tasks": ["cohomology"]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    with pytest.raises(InputError, match="unparsable"):
        cli.load_job(str(path))
    assert cli.main(["compute", str(path), "--out", str(tmp_path / "out")]) == 1


exps = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4).map(tuple)


@settings(max_examples=80, deadline=None)
@given(exps)
def test_format_parse_round_trip(e):
    assert parse_monomial(format_monomial(e), len(e)) == e


def test_support_mask_and_divisibility():
    assert support_mask((0, 2, 1)) == 0b110
    assert support_mask((0, 0)) == 0
    assert monomial_divides((1, 0), (2, 3))
    assert not monomial_divides((1, 4), (2, 3))
    assert monomial_mul((1, 2), (3, 0)) == (4, 2)


def test_ideal_minimalizes_generators():
    J = MonomialIdeal(2, ((2, 0), (3, 0), (0, 1), (2, 1)))
    assert J.gens == ((0, 1), (2, 0))
    assert zero_ideal(3).gens == ()


def test_ideal_rejects_bad_generators():
    with pytest.raises(InputError):
        MonomialIdeal(2, ((1, 2, 3),))
    with pytest.raises(InputError):
        MonomialIdeal(2, ((-1, 0),))


def test_piece_dim_plain_ring():
    J = zero_ideal(2)
    assert localized_piece_dim(0, J, (0, 0)) == 1
    assert localized_piece_dim(0, J, (2, 1)) == 1
    assert localized_piece_dim(0, J, (-1, 0)) == 0
    # inverting x1 frees its exponent
    assert localized_piece_dim(0b01, J, (-1, 0)) == 1
    assert localized_piece_dim(0b01, J, (-1, -1)) == 0
    assert localized_piece_dim(0b11, J, (-5, -5)) == 1


def test_piece_dim_against_divisibility_oracle():
    # non-localized case: the piece is 1 exactly when x^b is a monomial of R
    # outside J, which is a direct divisibility statement
    J = MonomialIdeal(3, ((2, 0, 0), (0, 1, 1)))
    for b1 in range(-1, 4):
        for b2 in range(-1, 4):
            for b3 in range(-1, 4):
                b = (b1, b2, b3)
                want = 0
                if all(x >= 0 for x in b) and not any(monomial_divides(g, b) for g in J.gens):
                    want = 1
                assert localized_piece_dim(0, J, b) == want


def test_piece_dim_quotient_kills_inverted_nilpotents():
    # J contains a power of x1, so any localization inverting x1 collapses
    J = MonomialIdeal(2, ((3, 0),))
    for b1 in range(-3, 4):
        for b2 in range(-3, 4):
            assert localized_piece_dim(0b01, J, (b1, b2)) == 0
            assert localized_piece_dim(0b11, J, (b1, b2)) == 0
    assert localized_piece_dim(0b10, J, (2, -4)) == 1
    assert localized_piece_dim(0b10, J, (3, -4)) == 0


@st.composite
def pieces_cases(draw):
    """A degree with negative coordinates allowed, and a quotient that is
    empty, contains 1, or has up to three generators."""
    m = draw(st.integers(min_value=1, max_value=4))
    b = tuple(draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m)))
    gen = st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m).map(tuple)
    kind = draw(st.sampled_from(["empty", "unit", "drawn"]))
    gens = [] if kind == "empty" else draw(st.lists(gen, min_size=1, max_size=3))
    if kind == "unit":
        gens.append((0,) * m)
    return m, b, MonomialIdeal(m, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(pieces_cases())
def test_piece_pattern_matches_the_piece_dimension_mask_by_mask(case):
    m, b, quotient = case
    problem = CechProblem(PrimeField(5), m, (((1,) * m,),), quotient, ((-3,) * m, (3,) * m))
    pattern = piece_pattern(problem, b)
    assert pattern == tuple(localized_piece_dim(mask, quotient, b) for mask in range(1 << m))
    if (0,) * m in quotient.gens:  # R/R = 0: no piece is alive
        assert not any(pattern)


@pytest.mark.parametrize("b", [(0,), (0, 0, 0), ()])
def test_piece_pattern_refuses_a_degree_of_the_wrong_length(b):
    problem = CechProblem(PrimeField(5), 2, (((1, 0),),), zero_ideal(2), ((0, 0), (1, 1)))
    with pytest.raises(ContractError, match="wrong length for 2 variables"):
        piece_pattern(problem, b)
    with pytest.raises(ContractError, match="wrong length for 2 variables"):
        localized_piece_dim(0, zero_ideal(2), b)


def test_product_sequence_order():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    groups = ((x,), (y, z))
    assert product_sequence(groups) == ((1, 1, 0), (1, 0, 1))
    assert product_sequence(((x, y), (y, z))) == ((1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1))
    assert product_sequence(()) == ()


def test_window_degrees_lex_order():
    degs = list(window_degrees(((-1, 0), (0, 1))))
    assert degs == [(-1, 0), (-1, 1), (0, 0), (0, 1)]
