import pytest

from shiftlab import (PolynomialGenerator, PolynomialSyntaxError,
                      monomial_generator, parse_generators, parse_polynomial)


@pytest.mark.parametrize("text,terms", [
    ("z1", {((1, 0), 0, 1.0)}),
    ("z1^3", {((3, 0), 0, 1.0)}),
    ("2*z1*z2", {((1, 1), 0, 2.0)}),
    ("2 z1 z2", {((1, 1), 0, 2.0)}),
    ("z1^2 - z2^2", {((2, 0), 0, 1.0), ((0, 2), 0, -1.0)}),
    ("-3", {((0, 0), 0, -3.0)}),
    ("z1*z1", {((2, 0), 0, 1.0)}),
    ("+z2 - 2*z2", {((0, 1), 0, -1.0)}),
])
def test_parse_scalar_polynomials(text, terms):
    g = parse_polynomial(text, num_vars=2)
    assert set(g.terms) == terms


def test_parse_component_suffix():
    g = parse_polynomial("z1(c0) + z2(c1)", num_vars=2, multiplicity=2)
    assert set(g.terms) == {((1, 0), 0, 1.0), ((0, 1), 1, 1.0)}


def test_parse_generators_semicolon_list():
    gens = parse_generators("z1^2; z1*z2 ; z2^2", num_vars=2)
    assert [g.homogeneous_degree for g in gens] == [2, 2, 2]


@pytest.mark.parametrize("text,pos", [
    ("z1*+", 3),
    ("z3", 0),
    ("z1^", 3),
    ("", 0),
    ("z1 $ z2", 3),
])
def test_syntax_errors_carry_position(text, pos):
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial(text, num_vars=2)
    assert exc.value.position == pos


def test_component_out_of_range():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("z1(c2)", num_vars=2, multiplicity=2)


def test_homogeneity_flags():
    assert parse_polynomial("z1^2 + z2^2", 2).is_homogeneous
    mixed = parse_polynomial("z1^2 + z2", 2)
    assert not mixed.is_homogeneous
    assert mixed.max_degree == 2
    assert mixed.homogeneous_degree is None


def test_monomial_generator_helper():
    g = monomial_generator((1, 2), num_vars=2)
    assert g.terms == (((1, 2), 0, 1.0),)
    assert g.is_homogeneous and g.homogeneous_degree == 3


def test_generator_validation():
    with pytest.raises(ValueError):
        PolynomialGenerator(terms=(((1, 0), 0, 0.0),), num_vars=2)
    with pytest.raises(ValueError):
        PolynomialGenerator(terms=(((1, 0), 0, 1.0), ((1, 0), 0, 2.0)),
                            num_vars=2)


@pytest.mark.parametrize("terms, message", [
    # was built into a 10-dimensional submodule at m = 2, N = 4
    ((((-1, 1), 0, 1.0),), r"term \(\(-1, 1\), 0, 1.0\): negative exponent"),
    # failed inside numpy on a broadcast
    ((((1, 1, 1), 0, 1.0),), r"term \(\(1, 1, 1\), 0, 1.0\): 3 exponents, not 2"),
    # raised IndexError
    ((((1,), 0, 1.0), ((0, 2), 0, 1.0)), r"term \(\(1,\), 0, 1.0\): 1 exponents, not 2"),
], ids=["negative-exponent", "too-many-exponents", "too-few-exponents"])
def test_generator_refuses_a_malformed_multi_index(terms, message):
    with pytest.raises(ValueError, match=message):
        PolynomialGenerator(terms=terms, num_vars=2)


def test_cancellation_of_terms_rejected():
    # a polynomial that cancels to zero has no terms left
    with pytest.raises((PolynomialSyntaxError, ValueError)):
        parse_polynomial("z1 - z1", num_vars=2)
