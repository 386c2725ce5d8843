"""Parser and evaluator for group words in named generators.

Grammar (Atlas conventions):

    word     ::= factor+                juxtaposition is product, left-assoc
    factor   ::= atom ('^' exponent)*   postfix '^' binds tighter than product
    exponent ::= ['-'] digits           integer power; -1 is the inverse
               | atom                   conjugation: x^w means w^-1 x w
    atom     ::= identifier | '(' word ')'

Identifiers are maximal alphanumeric runs.  A run that is a bound name, a
single letter, or a letter followed by digits (f1, f2, ...) is one
generator; a longer run of letters splits into single-letter generators, the
classic two-generator reading under which abab^2 means a b a b^2.  A
multi-letter name is therefore only reachable when it is bound in `names`
or separated from its neighbours by whitespace or parentheses.

Trees print with spaces between product factors and parentheses around
compound bases and exponents, so parse(print(tree), names) returns a
structurally equal tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from . import exactlinalg as la


class WordSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundNameError(KeyError):
    def __str__(self):
        # KeyError's own str is the repr of the key
        return f"no matrix is bound to the generator {self.args[0]!r}"


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Inv:
    expr: object


@dataclass(frozen=True)
class Pow:
    expr: object
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("zero exponent")


@dataclass(frozen=True)
class Conj:
    base: object
    by: object


_RUN = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_NAME_PART = re.compile(r"[A-Za-z][0-9]*")

#: Deepest nesting of factors (parentheses and exponents) a word may have;
#: the parser, the printer and the evaluator all recurse once per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src, names):
        self.src = src
        self.pos = 0
        self.names = names
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        return self.src[self.pos] if self.pos < len(self.src) else None

    def parse_product(self):
        factors = []
        while True:
            self._skip_ws()
            c = self._peek()
            if c is None or c == ")":
                break
            if c == "(" or c.isalpha():
                factors.extend(self._parse_factor())
            else:
                raise WordSyntaxError(f"unexpected character {c!r}", self.pos)
        if not factors:
            raise WordSyntaxError("empty word", self.pos)
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def _parse_factor(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise WordSyntaxError(f"word nested deeper than {MAX_NESTING} levels",
                                  self.pos)
        c = self._peek()
        if c == "(":
            self.pos += 1
            inner = self.parse_product()
            self._skip_ws()
            if self._peek() != ")":
                raise WordSyntaxError("unbalanced parentheses", self.pos)
            self.pos += 1
            exprs = [inner]
        else:
            start = self.pos
            m = _RUN.match(self.src, self.pos)
            run = m.group()
            self.pos = m.end()
            exprs = [Gen(n) for n in self._resolve_run(run, start)]
        while True:
            self._skip_ws()
            if self._peek() != "^":
                break
            self.pos += 1
            exprs[-1] = self._parse_exponent(exprs[-1])
        self.depth -= 1
        return exprs

    def _parse_exponent(self, base):
        self._skip_ws()
        c = self._peek()
        if c is None:
            raise WordSyntaxError("empty exponent", self.pos)
        if c == "-" or c.isdigit():
            start = self.pos
            if c == "-":
                self.pos += 1
            digits = ""
            while self._peek() is not None and self._peek().isdigit():
                digits += self.src[self.pos]
                self.pos += 1
            if not digits:
                raise WordSyntaxError("empty exponent", start)
            n = int(digits) * (-1 if c == "-" else 1)
            if n == 0:
                raise WordSyntaxError("zero exponent", start)
            if n == -1:
                return Inv(base)
            return Pow(base, n)
        if c == "(":
            self.pos += 1
            w = self.parse_product()
            self._skip_ws()
            if self._peek() != ")":
                raise WordSyntaxError("unbalanced parentheses", self.pos)
            self.pos += 1
            return Conj(base, w)
        if c.isalpha():
            start = self.pos
            m = _RUN.match(self.src, self.pos)
            self.pos = m.end()
            parts = self._resolve_run(m.group(), start)
            by = Gen(parts[0]) if len(parts) == 1 else Prod(tuple(Gen(p) for p in parts))
            return Conj(base, by)
        raise WordSyntaxError(f"bad exponent start {c!r}", self.pos)

    def _resolve_run(self, run, start):
        names = self.names
        if names is not None and run in names:
            return [run]
        if len(run) == 1 or _NAME_PART.fullmatch(run):
            self._check_known(run, start)
            return [run]
        parts = _NAME_PART.findall(run)
        if "".join(parts) != run:
            raise WordSyntaxError(f"bad identifier {run!r}", start)
        for p in parts:
            self._check_known(p, start)
        return parts

    def _check_known(self, name, start):
        if self.names is not None and name not in self.names:
            raise WordSyntaxError(f"unknown generator {name!r}", start)


def parse_word(src: str, names=None):
    """Parse a word; `names`, when given, lists the bound generator names."""
    p = _Parser(src, frozenset(names) if names is not None else None)
    expr = p.parse_product()
    p._skip_ws()
    if p.pos != len(src):
        raise WordSyntaxError("trailing input", p.pos)
    return expr


def word_to_text(expr) -> str:
    """Render a tree so that reparsing with the same names reproduces it."""
    if isinstance(expr, Gen):
        return expr.name
    if isinstance(expr, Prod):
        return " ".join(_factor_text(f) for f in expr.factors)
    if isinstance(expr, Inv):
        return f"{_atom_text(expr.expr)}^-1"
    if isinstance(expr, Pow):
        return f"{_atom_text(expr.expr)}^{expr.exponent}"
    if isinstance(expr, Conj):
        by = expr.by
        by_text = by.name if isinstance(by, Gen) else f"({word_to_text(by)})"
        return f"{_atom_text(expr.base)}^{by_text}"
    raise TypeError(f"not a word expression: {expr!r}")


def _atom_text(expr):
    if isinstance(expr, Gen):
        return expr.name
    return f"({word_to_text(expr)})"


def _factor_text(expr):
    if isinstance(expr, Prod):
        return f"({word_to_text(expr)})"
    return word_to_text(expr)


def gen_names(expr):
    """The set of generator names referenced by a tree."""
    if isinstance(expr, Gen):
        return {expr.name}
    if isinstance(expr, Prod):
        out = set()
        for f in expr.factors:
            out |= gen_names(f)
        return out
    if isinstance(expr, (Inv, Pow)):
        return gen_names(expr.expr)
    if isinstance(expr, Conj):
        return gen_names(expr.base) | gen_names(expr.by)
    raise TypeError(f"not a word expression: {expr!r}")


def eval_word(expr, env) -> la.ExactMatrix:
    """Evaluate a tree against an environment of square matrices."""
    if isinstance(expr, Gen):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundNameError(expr.name) from None
    if isinstance(expr, Prod):
        return reduce(la.mat_mul, (eval_word(f, env) for f in expr.factors))
    if isinstance(expr, Inv):
        return la.mat_inv(eval_word(expr.expr, env))
    if isinstance(expr, Pow):
        return la.mat_pow(eval_word(expr.expr, env), expr.exponent)
    if isinstance(expr, Conj):
        h = eval_word(expr.by, env)
        return la.mat_mul(la.mat_mul(la.mat_inv(h), eval_word(expr.base, env)), h)
    raise TypeError(f"not a word expression: {expr!r}")


#: The derivation of the good generators as words in the standard
#: generators a, b (and in previously derived names).  Evaluable only when
#: matrices for a and b are supplied externally.
STANDARD_WORDS = (
    ("c", "b^((abab^2)^3)"),
    ("f1", "(a(ac)^6)^2"),
    ("f2", "f1^(ac)"),
    ("d", "(a(ac)^6)^5"),
    ("e", "((ac)^6(ab^2)^-1(ac)^6(ab^2))^4"),
    ("eprime", "e(ac)^8e(ac)^4e"),
)
