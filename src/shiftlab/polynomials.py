"""Plain-text polynomial generator syntax.

Grammar (whitespace insensitive):

    polynomial := [sign] term (sign term)*
    term       := factor ('*' factor)* ['(' 'c' index ')']
    factor     := number | 'z' index ['^' exponent]

Examples: ``z1^2+z2^2``, ``2.5*z1^2*z2 (c0)``, ``z1 - 0.5``.
Variable indices are 1-based; the optional ``(cJ)`` suffix selects the
coefficient-space component (default 0).
"""

import re
from dataclasses import dataclass

NON_HOMOGENEOUS = None

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_INT = re.compile(r"\d+")


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; carries the character position of the offender."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class PolynomialGenerator:
    """A polynomial generator: list of (multi-index, component, coefficient) terms."""

    terms: tuple          # of (tuple exponents, int component, complex coeff)
    num_vars: int

    def __post_init__(self):
        if not self.terms:
            raise ValueError("generator has no nonzero terms")
        seen = set()
        for alpha, c, coef in self.terms:
            if len(alpha) != self.num_vars:
                raise ValueError(f"term {alpha, c, coef}: {len(alpha)} exponents, not {self.num_vars}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"term {alpha, c, coef}: negative exponent")
            if (alpha, c) in seen:
                raise ValueError(f"duplicate term for multi-index {alpha}, component {c}")
            seen.add((alpha, c))
            if coef == 0:
                raise ValueError("zero coefficient term")

    @property
    def homogeneous_degree(self):
        """Common total degree of all terms, or NON_HOMOGENEOUS."""
        degs = {sum(alpha) for alpha, _, _ in self.terms}
        return degs.pop() if len(degs) == 1 else NON_HOMOGENEOUS

    @property
    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree is not NON_HOMOGENEOUS

    @property
    def max_degree(self) -> int:
        return max(sum(alpha) for alpha, _, _ in self.terms)


def monomial_generator(alpha, component: int = 0, num_vars: int | None = None) -> PolynomialGenerator:
    alpha = tuple(int(a) for a in alpha)
    return PolynomialGenerator(terms=((alpha, component, 1.0),),
                               num_vars=num_vars or len(alpha))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_match(self, pattern):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def expect(self, char: str):
        if self.peek() != char:
            raise PolynomialSyntaxError(f"expected {char!r}", self.pos)
        self.pos += 1


def parse_polynomial(text: str, num_vars: int, multiplicity: int = 1) -> PolynomialGenerator:
    """Parse one polynomial generator from text."""
    s = _Scanner(text)
    raw = {}

    sign = 1.0
    ch = s.peek()
    if ch and ch in "+-":
        sign = -1.0 if ch == "-" else 1.0
        s.pos += 1
    if s.peek() == "":
        raise PolynomialSyntaxError("empty polynomial", s.pos)

    while True:
        coef, exps, comp = _parse_term(s, num_vars, multiplicity)
        key = (tuple(exps), comp)
        raw[key] = raw.get(key, 0.0) + sign * coef

        ch = s.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise PolynomialSyntaxError(f"expected '+' or '-', found {ch!r}", s.pos)
        sign = -1.0 if ch == "-" else 1.0
        s.pos += 1

    terms = tuple((alpha, c, coef) for (alpha, c), coef in raw.items() if coef != 0)
    if not terms:
        raise PolynomialSyntaxError("all terms cancel to zero", 0)
    return PolynomialGenerator(terms=terms, num_vars=num_vars)


def _parse_term(s: _Scanner, num_vars: int, multiplicity: int):
    coef = 1.0
    exps = [0] * num_vars
    saw_factor = False

    while True:
        ch = s.peek()
        if ch == "z":
            start = s.pos
            s.pos += 1
            m = s.take_match(_INT)
            if not m:
                raise PolynomialSyntaxError("expected variable index after 'z'", s.pos)
            i = int(m.group())
            if not 1 <= i <= num_vars:
                raise PolynomialSyntaxError(
                    f"variable z{i} out of range (m={num_vars})", start)
            e = 1
            if s.peek() == "^":
                s.pos += 1
                me = s.take_match(_INT)
                if not me:
                    raise PolynomialSyntaxError("expected exponent after '^'", s.pos)
                e = int(me.group())
            exps[i - 1] += e
            saw_factor = True
        elif ch and (ch.isdigit() or ch == "."):
            m = s.take_match(_NUMBER)
            coef *= float(m.group())
            saw_factor = True
        else:
            raise PolynomialSyntaxError(
                f"expected a coefficient or variable, found {ch!r}" if ch
                else "expected a coefficient or variable, found end of input", s.pos)

        nxt = s.peek()
        if nxt == "*":
            s.pos += 1
            continue
        if nxt == "z" or (nxt and (nxt.isdigit() or nxt == ".")):
            continue  # implicit product, e.g. z1z2 or 2z1
        break

    comp = 0
    if s.peek() == "(":
        start = s.pos
        s.pos += 1
        if s.peek() != "c":
            raise PolynomialSyntaxError("expected component marker 'c'", s.pos)
        s.pos += 1
        m = s.take_match(_INT)
        if not m:
            raise PolynomialSyntaxError("expected component index after 'c'", s.pos)
        comp = int(m.group())
        if not 0 <= comp < multiplicity:
            raise PolynomialSyntaxError(
                f"component c{comp} out of range (k={multiplicity})", start)
        s.expect(")")

    if not saw_factor:
        raise PolynomialSyntaxError("empty term", s.pos)
    return coef, exps, comp


def parse_generators(text: str, num_vars: int, multiplicity: int = 1):
    """Parse a ';'-separated list of polynomial generators."""
    return [parse_polynomial(part, num_vars, multiplicity)
            for part in text.split(";") if part.strip()]
