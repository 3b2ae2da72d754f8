"""XPath tokenizer."""

import pytest

from repro.util.errors import XPathSyntaxError
from repro.xpath import lexer


def kinds(expression):
    return [t.kind for t in lexer.tokenize(expression)]


def test_simple_path():
    assert kinds("//div/span") == [
        lexer.DSLASH, lexer.NAME, lexer.SLASH, lexer.NAME, lexer.END]


def test_predicate_tokens():
    tokens = lexer.tokenize('//div[@id="x"]')
    assert [t.kind for t in tokens] == [
        lexer.DSLASH, lexer.NAME, lexer.LBRACKET, lexer.AT, lexer.NAME,
        lexer.EQ, lexer.STRING, lexer.RBRACKET, lexer.END]
    assert tokens[6].value == "x"


def test_single_quoted_string():
    tokens = lexer.tokenize("//div[@id='y']")
    assert tokens[6].value == "y"


def test_integer_token():
    tokens = lexer.tokenize("//li[2]")
    assert tokens[3].kind == lexer.INTEGER
    assert tokens[3].value == 2


def test_star():
    assert kinds("//*") == [lexer.DSLASH, lexer.STAR, lexer.END]


def test_function_syntax_tokens():
    assert kinds('//div[text()="Save"]') == [
        lexer.DSLASH, lexer.NAME, lexer.LBRACKET, lexer.NAME, lexer.LPAREN,
        lexer.RPAREN, lexer.EQ, lexer.STRING, lexer.RBRACKET, lexer.END]


def test_contains_with_comma():
    assert lexer.COMMA in kinds('//a[contains(@href, "x")]')


def test_whitespace_skipped():
    assert kinds("  //div  [ 1 ]") == [
        lexer.DSLASH, lexer.NAME, lexer.LBRACKET, lexer.INTEGER,
        lexer.RBRACKET, lexer.END]


def test_names_allow_dashes_and_dots():
    tokens = lexer.tokenize("//my-el[@data-x.y]")
    assert tokens[1].value == "my-el"
    assert tokens[4].value == "data-x.y"


def test_unterminated_string_raises():
    with pytest.raises(XPathSyntaxError):
        lexer.tokenize('//div[@id="oops]')


def test_unexpected_character_raises():
    with pytest.raises(XPathSyntaxError):
        lexer.tokenize("//div[#]")


def test_non_ascii_digit_is_a_syntax_error():
    for expression in ('//a[contains(@href,\u00b2"x")]', "//li[1\u00b2]"):
        with pytest.raises(XPathSyntaxError):
            lexer.tokenize(expression)


def test_value_of_string_excludes_quotes():
    tokens = lexer.tokenize('"hello world"')
    assert tokens[0].value == "hello world"
