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

Cost of ``render``: one sort of the terms, then per term a few dict
lookups and string concatenations.  Coefficient text comes straight from
the integer triple ``(na, nb, den)`` of the QSqrt (signs and the unit test
on ints, one ``gcd`` only when ``den != 1``).  Leg text is kept in a memo
local to the call: a word's text is its parent word's text plus one
letter, and consecutive terms in sorted order share parents, so most
letters are never formatted twice; the second leg of a projection is a
memo hit.  Nothing is cached across calls.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, _add_into, adjoint, monomial, multiply, one, term_sort_key, zero
from .errors import ExprSyntaxError
from .scalars import QSqrt, ratio_str


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise ExprSyntaxError(message, _byte_offset(self.text, self.pos if pos is None else pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str):
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def digits(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # int() refuses numbers past its digit limit
            self.error(f"number of {self.pos - start} digits is too long", start)

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        negative = False
        if self.peek() == "-":
            negative = True
            self.pos += 1
        num = self.digits()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den = self.digits()
            if den == 0:
                self.error("malformed rational: zero denominator", start)
        value = Fraction(num, den)
        return -value if negative else value

    def index(self) -> int:
        self.skip_ws()
        start = self.pos
        value = self.digits()
        if not 1 <= value <= self.n:
            self.error(f"index {value} outside 1..{self.n}", start)
        return value

    def factor(self) -> AlgebraElement:
        c = self.peek()
        if c == "I":
            self.pos += 1
            return one(self.n)
        if c != "S":
            self.error("expected a factor ('I' or 'S[...]')")
        self.pos += 1
        self.take("[")
        letters = [self.index()]
        while self.peek() == ",":
            self.pos += 1
            letters.append(self.index())
        self.take("]")
        el = monomial(self.n, tuple(letters), ())
        if self.peek() == "'":
            self.pos += 1
            el = adjoint(el)
        return el

    def term(self) -> AlgebraElement:
        c = self.peek()
        coeff = None
        if c == "-" or c.isdecimal():
            rat = self.rational()
            if self.peek() == "r":
                self.pos += 1
                coeff = QSqrt(self.n, 0, rat)
            else:
                coeff = QSqrt(self.n, rat)
            self.take("*")
        el = self.factor()
        while self.peek() == ".":
            self.pos += 1
            el = multiply(el, self.factor())
        if coeff is not None:
            el = el.scale(coeff)
        return el

    def element(self) -> AlgebraElement:
        # bare "0" (optionally signed) denotes the zero element
        mark = self.pos
        c = self.peek()
        if c == "-" or c.isdecimal():
            try:
                rat = self.rational()
            except ExprSyntaxError:
                rat = None
                self.pos = mark
            if rat is not None:
                if self.peek() == "" and rat == 0:
                    return zero(self.n)
                self.pos = mark
        acc = zero(self.n)  # each term is added into one map, so the cost is linear
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        while True:
            el = self.term()
            _add_into(acc.terms, (-el if negate else el).terms)
            c = self.peek()
            if c == "":
                return acc
            if c not in "+-":
                self.error("unexpected input after element")
            negate = c == "-"
            self.pos += 1


def parse(text: str, n: int) -> AlgebraElement:
    """Parse element text over O_n."""
    return _Parser(text, n).element()


def _leg_text(word, memo: dict) -> str:
    """Letters of a nonempty word as "1,2,3", stored in ``memo`` with the
    text of its parent word ``word[:-1]``, from which it is built.  A parent
    not yet in ``memo`` is joined afresh instead of from its own parent, so
    a word costs at most one pass over its letters and ``memo`` stays
    linear in the length of the output."""
    parent = word[:-1]
    if parent:
        head = memo.get(parent)
        if head is None:
            head = memo[parent] = ",".join(map(str, parent))
        text = f"{head},{word[-1]}"
    else:
        text = str(word[0])
    memo[word] = text
    return text


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
    legs: dict = {}  # word -> its letters' text, for this call only
    get = legs.get
    out: list[str] = []
    first = True
    for key in sorted(terms, key=term_sort_key):
        mu, nu = key
        if mu:
            mono = "S[" + (get(mu) or _leg_text(mu, legs)) + "]"
            if nu:
                mono += ".S[" + (get(nu) or _leg_text(nu, legs)) + "]'"
        elif nu:
            mono = "S[" + (get(nu) or _leg_text(nu, legs)) + "]'"
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
