"""Parser and evaluator for group words in named generators.

Grammar (Atlas conventions):

    word     ::= factor+                juxtaposition is product, left-assoc
    factor   ::= atom ('^' exponent)*   postfix '^' binds tighter than product
    exponent ::= ['-'] digits           integer power; -1 is the inverse
               | atom                   conjugation: x^w means w^-1 x w
    atom     ::= identifier | '(' word ')'

A word is read as one list of tokens, whitespace between them ignored:
ASCII runs [A-Za-z][A-Za-z0-9]*, ASCII integers -?[0-9]+, and single other
characters.  Non-ASCII letters and digits are never names or numbers; they
are syntax errors like any other stray character.

Identifiers are maximal name runs.  A run that is a bound name, a single
letter, or a letter followed by digits (f1, f2, ...) is one generator; any
other run splits into letter-then-digits parts, the classic two-generator
reading under which abab^2 means a b a b^2.  A multi-letter name is
therefore only reachable when it is bound in `names` and separated from its
neighbours by whitespace or other characters.

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


#: One token after optional whitespace: an ASCII name run, an ASCII integer,
#: any other character, or the end of the word.  `lastgroup` is its kind.
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<number>-?[0-9]+)"
                    r"|(?P<char>\S)|(?P<end>\Z))")
_NAME_PART = re.compile(r"[A-Za-z][0-9]*")

#: Deepest nesting of factors (parentheses and exponents) a word may have;
#: the parser recurses up to four frames a level, printer and evaluator two.
MAX_NESTING = 100


def is_name(text):
    """Whether `text` is one whole name run, the form a bound name takes."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.start("name") == 0


class _Parser:
    """Recursive descent over the (kind, text, position) tokens of a word,
    which end in ("end", "", len(src))."""

    def __init__(self, src, names):
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN.finditer(src)]
        self.names = names
        self.i = self.depth = 0

    def parse_product(self):
        factors = []
        kind, text, pos = self.tokens[self.i]
        while kind != "end" and text != ")":
            if kind != "name" and text != "(":
                raise WordSyntaxError(f"unexpected character {text[0]!r}", pos)
            factors.extend(self._parse_factor(text, pos))
            kind, text, pos = self.tokens[self.i]
        if not factors:
            raise WordSyntaxError("empty word", pos)
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def _parse_factor(self, text, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise WordSyntaxError(f"word nested deeper than {MAX_NESTING} levels", pos)
        if text == "(":
            exprs = [self._parse_group()]
        else:
            self.i += 1
            exprs = [Gen(n) for n in self._names_of(text, pos)]
        while self.tokens[self.i][1] == "^":
            self.i += 1
            exprs[-1] = self._parse_exponent(exprs[-1])
        self.depth -= 1
        return exprs

    def _parse_group(self):
        """A bracketed word, from its '(' through its ')'."""
        self.i += 1
        inner = self.parse_product()
        _, text, pos = self.tokens[self.i]
        if text != ")":
            raise WordSyntaxError("unbalanced parentheses", pos)
        self.i += 1
        return inner

    def _parse_exponent(self, base):
        kind, text, pos = self.tokens[self.i]
        if kind == "number":
            self.i += 1
            n = int(text)
            if n == 0:
                raise WordSyntaxError("zero exponent", pos)
            return Inv(base) if n == -1 else Pow(base, n)
        if kind == "end" or text == "-":
            raise WordSyntaxError("empty exponent", pos)
        if text == "(":
            return Conj(base, self._parse_group())
        if kind != "name":
            raise WordSyntaxError(f"bad exponent start {text!r}", pos)
        self.i += 1
        by = [Gen(n) for n in self._names_of(text, pos)]
        return Conj(base, by[0] if len(by) == 1 else Prod(tuple(by)))

    def _names_of(self, run, pos):
        """The run itself if it is bound, else its letter-then-digits parts."""
        if self.names is not None and run in self.names:
            return [run]
        parts = _NAME_PART.findall(run)
        for p in parts:
            if self.names is not None and p not in self.names:
                raise WordSyntaxError(f"unknown generator {p!r}", pos)
        return parts


def parse_word(src: str, names=None):
    """Parse a word; `names`, when given, lists the bound generator names."""
    p = _Parser(src, frozenset(names) if names is not None else None)
    expr = p.parse_product()
    kind, _, pos = p.tokens[p.i]
    if kind != "end":
        raise WordSyntaxError("trailing input", pos)
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
        return f"{_atom_text(expr.base)}^{_atom_text(expr.by)}"
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
        return set().union(*map(gen_names, expr.factors))
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
