"""Tests for the path-expression parser."""

from __future__ import annotations

import pytest

from repro.rpq import (
    Concat,
    Label,
    RegexSyntaxError,
    Repeat,
    Union,
    khop_expression,
    parse_path_expression,
)


def test_single_label():
    node = parse_path_expression("knows")
    assert isinstance(node, Label)
    assert node.name == "knows"
    assert not node.is_wildcard
    assert node.fixed_length() == 1


def test_wildcard_label():
    node = parse_path_expression(".")
    assert isinstance(node, Label)
    assert node.is_wildcard


def test_concatenation_with_slash_and_juxtaposition():
    slash = parse_path_expression("a/b/c")
    juxtaposed = parse_path_expression("a b c")
    for node in (slash, juxtaposed):
        assert isinstance(node, Concat)
        assert [part.name for part in node.parts] == ["a", "b", "c"]
        assert node.fixed_length() == 3


def test_alternation():
    node = parse_path_expression("a|b|c")
    assert isinstance(node, Union)
    assert len(node.options) == 3
    assert node.is_fixed_length()
    assert node.fixed_length() == 1


def test_alternation_with_different_lengths_is_not_fixed():
    node = parse_path_expression("a|(b/c)")
    assert isinstance(node, Union)
    assert not node.is_fixed_length()
    assert node.fixed_length() is None


def test_kleene_star_plus_optional():
    star = parse_path_expression("a*")
    plus = parse_path_expression("a+")
    optional = parse_path_expression("a?")
    assert isinstance(star, Repeat) and star.minimum == 0 and star.maximum is None
    assert isinstance(plus, Repeat) and plus.minimum == 1 and plus.maximum is None
    assert isinstance(optional, Repeat) and optional.maximum == 1
    assert not star.is_fixed_length()


def test_bounded_repetition():
    exact = parse_path_expression("a{3}")
    ranged = parse_path_expression("a{2,4}")
    unbounded = parse_path_expression("a{2,}")
    assert exact.minimum == exact.maximum == 3
    assert exact.fixed_length() == 3
    assert ranged.minimum == 2 and ranged.maximum == 4
    assert unbounded.maximum is None


def test_khop_expression_helper():
    assert khop_expression(3) == ".{3}"
    node = parse_path_expression(khop_expression(3))
    assert node.fixed_length() == 3
    with pytest.raises(ValueError):
        khop_expression(0)


def test_grouping_and_nesting():
    node = parse_path_expression("(a/b)+|c")
    assert isinstance(node, Union)
    repeat = node.options[0]
    assert isinstance(repeat, Repeat)
    assert isinstance(repeat.inner, Concat)


def test_labels_with_punctuation():
    node = parse_path_expression("rdf:type/foaf-knows")
    assert isinstance(node, Concat)
    assert node.parts[0].name == "rdf:type"
    assert node.parts[1].name == "foaf-knows"


@pytest.mark.parametrize(
    "expression",
    ["", "a|", "(a", "a)", "a{", "a{x}", "a{3,2}", "*", "|a", "a}"],
)
def test_malformed_expressions_raise(expression):
    with pytest.raises(RegexSyntaxError):
        parse_path_expression(expression)


def test_unexpected_character_raises():
    with pytest.raises(RegexSyntaxError):
        parse_path_expression("a@b")


def test_bare_underscore_is_wildcard():
    node = parse_path_expression("_")
    assert isinstance(node, Label)
    assert node.is_wildcard


def test_leading_underscore_starts_an_identifier():
    # Regression: the tokenizer used to treat *any* ``_`` as the
    # wildcard, so ``_foo`` silently parsed as ``./foo``.
    node = parse_path_expression("_foo")
    assert isinstance(node, Label)
    assert node.name == "_foo"
    assert not node.is_wildcard
    assert node.fixed_length() == 1


def test_interior_underscore_identifiers():
    node = parse_path_expression("foo_bar/_private")
    assert isinstance(node, Concat)
    assert [part.name for part in node.parts] == ["foo_bar", "_private"]
    assert not any(part.is_wildcard for part in node.parts)


def test_underscore_then_operator_is_wildcard():
    # ``_`` only starts an identifier when an identifier character
    # follows; before an operator it is still the SPARQL-style wildcard.
    node = parse_path_expression("_/knows")
    assert isinstance(node, Concat)
    assert node.parts[0].is_wildcard
    assert node.parts[1].name == "knows"


@pytest.mark.parametrize(
    "expression, copies",
    [
        ("a", 1),
        ("a/b/c", 3),
        ("(a|b)/c", 3),
        (".{64}", 64),
        ("a{1,65}", 65),
        ("(a{9}){9}", 81),
        ("(a|b){2000}", 4000),
        ("a{0}", 0),
        # Kleene operators loop over one copy and add none.
        ("(a|b)*", 2),
        ("a+", 1),
        ("a?", 1),
        ("(a/b){3,}", 6),
        ("(a{100}){100}", 10_000),
    ],
)
def test_unrolled_length_counts_atom_copies(expression, copies):
    from repro.rpq import unrolled_length

    assert unrolled_length(parse_path_expression(expression)) == copies
    assert unrolled_length(parse_path_expression(khop_expression(7))) == 7
