"""Textual element format: parser and deterministic renderer.

Grammar (UTF-8 text, whitespace insignificant between tokens):

    element  := term ( ('+' | '-') term )*
    term     := [ coeff '*' ] factor ( '.' factor )*     -- '.' is the product
    factor   := 'I' | gen | gen "'"                      -- ' = adjoint of the block
    gen      := 'S[' index ( ',' index )* ']'
    index    := decimal integer in 1..n
    coeff    := rational [ 'r' ]                         -- 'r' = sqrt(n)
    rational := [ '-' ] digits [ '/' digits ]

"0" denotes the zero element.  The parser additionally accepts a unary
minus in front of the first term; the renderer never emits one (a leading
negative sign is folded into an explicit coefficient), so rendered text
always stays inside the grammar above.

Rendering is deterministic: terms are ordered by (gauge degree, |nu|,
mu lexicographic, nu lexicographic) and a coefficient a + b*sqrt(n) with
both parts nonzero is emitted as two adjacent terms (the rational part
first).  ``parse(render(a), a.n)`` reproduces ``a`` exactly.

Cost: ``render`` sorts the terms, then joins each leg from letter texts
cached for the call (the second leg of a projection reuses the first), and
takes coefficient text straight from the integer triple ``(na, nb, den)``
of the QSqrt (one ``gcd`` only when ``den != 1``).  ``parse`` splits the
text with one compiled token pattern and walks the tokens.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .algebra import AlgebraElement, _add_into, multiply, one, term_sort_key, zero
from .errors import ExprSyntaxError
from .scalars import QSqrt, _Lazy, ratio_str


# A token is a run of decimal digits, any other character but whitespace
# (which only separates tokens), or "" at the end of the text.  On a str
# pattern \d and \S accept exactly what str.isdecimal and not str.isspace do.
_TOKEN = re.compile(r"\d+|\S|\Z")


class _Parser:
    """Recursive descent over the tokens of the text, which end in one ""."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _TOKEN.findall(text)
        self.i = 0
        self.unit = QSqrt(n, 1)  # refuses n < 2 before any token is read

    def error(self, message: str, at: int | None = None):
        """Raise at the byte offset of token ``at`` (default: the current one)."""
        token = next(itertools.islice(_TOKEN.finditer(self.text), self.i if at is None else at, None))
        raise ExprSyntaxError(message, len(self.text[: token.start()].encode("utf-8")))

    def take(self, char: str):
        if self.tokens[self.i] != char:
            self.error(f"expected {char!r}")
        self.i += 1

    def digits(self) -> int:
        token = self.tokens[self.i]
        if not token.isdecimal():
            self.error("expected digits")
        try:
            value = int(token)
        except ValueError:  # int() refuses numbers past its digit limit
            self.error(f"number of {len(token)} digits is too long")
        self.i += 1
        return value

    def rational(self) -> Fraction:
        start = self.i
        negative = self.tokens[start] == "-"
        if negative:
            self.i += 1
        num = self.digits()
        den = 1
        if self.tokens[self.i] == "/":
            self.i += 1
            den = self.digits()
            if den == 0:
                self.error("malformed rational: zero denominator", start)
        value = Fraction(num, den)
        return -value if negative else value

    def index(self) -> int:
        value = self.digits()
        if not 1 <= value <= self.n:
            self.error(f"index {value} outside 1..{self.n}", self.i - 1)
        return value

    def factor(self) -> AlgebraElement:
        tokens = self.tokens
        c = tokens[self.i]
        if c == "I":
            self.i += 1
            return one(self.n)
        if c != "S":
            self.error("expected a factor ('I' or 'S[...]')")
        self.i += 1
        self.take("[")
        letters = [self.index()]
        while tokens[self.i] == ",":
            self.i += 1
            letters.append(self.index())
        self.take("]")
        word = tuple(letters)
        key = (word, ())
        if tokens[self.i] == "'":
            self.i += 1
            key = ((), word)
        return AlgebraElement._make(self.n, {key: self.unit})

    def term(self) -> AlgebraElement:
        tokens = self.tokens
        c = tokens[self.i]
        coeff = None
        if c == "-" or c.isdecimal():
            rat = self.rational()
            if tokens[self.i] == "r":
                self.i += 1
                coeff = QSqrt(self.n, 0, rat)
            else:
                coeff = QSqrt(self.n, rat)
            self.take("*")
        el = self.factor()
        while tokens[self.i] == ".":
            self.i += 1
            el = multiply(el, self.factor())
        if coeff is not None:
            el = el.scale(coeff)
        return el

    def element(self) -> AlgebraElement:
        tokens = self.tokens
        # bare "0" (optionally signed) denotes the zero element
        c = tokens[0]
        if c == "-" or c.isdecimal():
            try:
                if self.rational() == 0 and tokens[self.i] == "":
                    return zero(self.n)
            except ExprSyntaxError:
                pass
            self.i = 0
        acc = zero(self.n)  # each term is added into one map, so the cost is linear
        negate = tokens[0] == "-"
        if negate:
            self.i += 1
        while True:
            el = self.term()
            _add_into(acc.terms, (-el if negate else el).terms)
            c = tokens[self.i]
            if c == "":
                return acc
            if c not in "+-":
                self.error("unexpected input after element")
            negate = c == "-"
            self.i += 1


def parse(text: str, n: int) -> AlgebraElement:
    """Parse element text over O_n."""
    return _Parser(text, n).element()


def _piece(value: int, den: int, root: str, mono: str, first: bool) -> str:
    """One rendered term ``value/den [r] * mono``.  The first term folds its
    sign into the coefficient; a later one is joined by " + " or " - "."""
    if first:
        sign = ""
    elif value < 0:
        sign, value = " - ", -value
    else:
        sign = " + "
    if value == den and not root:  # coefficient exactly 1
        return sign + mono
    return f"{sign}{ratio_str(value, den)}{root}*{mono}"


def render(a: AlgebraElement) -> str:
    """Deterministic text for an element; inverse of :func:`parse`
    up to semantic equality (in fact up to the exact term map)."""
    if a.is_zero:
        return "0"
    terms = a.terms
    leg = ",".join
    letter = _Lazy(str).__getitem__  # letter -> its text, for this call only
    out: list[str] = []
    first = True
    for key in sorted(terms, key=term_sort_key):
        mu, nu = key
        if mu:
            head = leg(map(letter, mu))
            if nu:
                mono = f"S[{head}].S[{head if nu == mu else leg(map(letter, nu))}]'"
            else:
                mono = f"S[{head}]"
        elif nu:
            mono = f"S[{leg(map(letter, nu))}]'"
        else:
            mono = "I"
        c = terms[key]
        if c.na:
            out.append(_piece(c.na, c.den, "", mono, first))
            first = False
        if c.nb:
            out.append(_piece(c.nb, c.den, "r", mono, first))
            first = False
    return "".join(out)
