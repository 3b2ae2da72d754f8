"""XPath tokenizer."""

from repro.util.errors import XPathSyntaxError

# Token kinds
SLASH = "SLASH"
DSLASH = "DSLASH"
NAME = "NAME"
STAR = "STAR"
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
AT = "AT"
EQ = "EQ"
COMMA = "COMMA"
STRING = "STRING"
INTEGER = "INTEGER"
END = "END"


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


#: Integer literals are ASCII: ``str.isdigit`` also accepts characters
#: such as ``"²"`` that ``int`` rejects.
_DIGITS = frozenset("0123456789")


def _is_name_char(char):
    return char.isalnum() or char in "-_."


def tokenize(expression):
    """Turn an XPath string into a list of tokens (END-terminated)."""
    tokens = []
    i = 0
    length = len(expression)
    while i < length:
        char = expression[i]
        if char.isspace():
            i += 1
            continue
        if expression.startswith("//", i):
            tokens.append(Token(DSLASH, "//", i))
            i += 2
            continue
        if char == "/":
            tokens.append(Token(SLASH, "/", i))
            i += 1
            continue
        if char == "*":
            tokens.append(Token(STAR, "*", i))
            i += 1
            continue
        if char == "[":
            tokens.append(Token(LBRACKET, "[", i))
            i += 1
            continue
        if char == "]":
            tokens.append(Token(RBRACKET, "]", i))
            i += 1
            continue
        if char == "(":
            tokens.append(Token(LPAREN, "(", i))
            i += 1
            continue
        if char == ")":
            tokens.append(Token(RPAREN, ")", i))
            i += 1
            continue
        if char == "@":
            tokens.append(Token(AT, "@", i))
            i += 1
            continue
        if char == "=":
            tokens.append(Token(EQ, "=", i))
            i += 1
            continue
        if char == ",":
            tokens.append(Token(COMMA, ",", i))
            i += 1
            continue
        if char in "\"'":
            quote = char
            end = expression.find(quote, i + 1)
            if end == -1:
                raise XPathSyntaxError(
                    "unterminated string at position %d in %r" % (i, expression)
                )
            tokens.append(Token(STRING, expression[i + 1:end], i))
            i = end + 1
            continue
        if char in _DIGITS:
            start = i
            while i < length and expression[i] in _DIGITS:
                i += 1
            tokens.append(Token(INTEGER, int(expression[start:i]), start))
            continue
        if char.isalpha() or char == "_":
            start = i
            while i < length and _is_name_char(expression[i]):
                i += 1
            tokens.append(Token(NAME, expression[start:i], start))
            continue
        raise XPathSyntaxError(
            "unexpected character %r at position %d in %r" % (char, i, expression)
        )
    tokens.append(Token(END, None, length))
    return tokens
