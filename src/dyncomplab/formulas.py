"""Formula AST, parser, pretty-printer, and Tarskian evaluator.

The language is first-order logic with equality, xor, and named relations
over a finite domain 0..n-1.  Rule parameters are ordinary variables that
happen to be bound by an update rule's header rather than a quantifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .structures import (ArityMismatchError, DynLabError, Structure,
                         UnknownRelationError)


class FormulaError(DynLabError):
    pass


# ---------------------------------------------------------------- terms

@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: int


Term = Var | Const


# ---------------------------------------------------------------- AST

@dataclass(frozen=True, slots=True)
class Atom:
    rel: str
    terms: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Truth:
    value: bool


@dataclass(frozen=True, slots=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Xor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Formula"


Formula = Atom | Eq | Truth | Not | And | Or | Xor | Exists | Forall

TRUE = Truth(True)
FALSE = Truth(False)


# ---------------------------------------------------------------- builders

# The builders hand out one object per distinct leaf, looked up by their
# arguments: the catalog's programs repeat a few hundred atoms and terms
# tens of thousands of times.
_LEAVES: dict = {}
_MAX_LEAVES = 1 << 16


def _store(key, leaf):
    if len(_LEAVES) >= _MAX_LEAVES:
        _LEAVES.clear()
    _LEAVES[key] = leaf
    return leaf


def _term(t) -> Term:
    if isinstance(t, (Var, Const)):
        return t
    if not isinstance(t, (str, int)):
        raise FormulaError(f"cannot interpret {t!r} as a term")
    leaf = _LEAVES.get(t)
    if leaf is None:
        leaf = _store(t, Var(t) if isinstance(t, str) else Const(t))
    return leaf


def atom(rel: str, *terms) -> Atom:
    key = (rel, terms)
    leaf = _LEAVES.get(key)
    if leaf is None:
        leaf = _store(key, Atom(rel, tuple(_term(t) for t in terms)))
    return leaf


def eq(a, b) -> Eq:
    key = (a, b, "=")
    leaf = _LEAVES.get(key)
    if leaf is None:
        leaf = _store(key, Eq(_term(a), _term(b)))
    return leaf


def neq(a, b) -> Not:
    return Not(eq(a, b))


def neg(f: Formula) -> Formula:
    return Not(f)


def conj(parts: Iterable[Formula]) -> Formula:
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def xor_chain(parts: Iterable[Formula]) -> Formula:
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Xor(out, p)
    return FALSE if out is None else out


# ---------------------------------------------------------------- queries

def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.terms if isinstance(t, Var))
    if isinstance(f, Eq):
        return frozenset(t.name for t in (f.left, f.right) if isinstance(t, Var))
    if isinstance(f, Truth):
        return frozenset()
    if isinstance(f, Not):
        return free_variables(f.sub)
    if isinstance(f, (And, Or, Xor)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise FormulaError(f"unknown node {f!r}")


def classify(f: Formula) -> str:
    """Return "quantifier-free" or "first-order"."""
    if isinstance(f, (Exists, Forall)):
        return "first-order"
    if isinstance(f, Not):
        return classify(f.sub)
    if isinstance(f, (And, Or, Xor)):
        if classify(f.left) == "first-order" or classify(f.right) == "first-order":
            return "first-order"
    return "quantifier-free"


def validate_formula(f: Formula, schema: Mapping[str, int]) -> None:
    """Check every atom resolves against schema with the right arity."""
    if isinstance(f, Atom):
        if f.rel not in schema:
            raise UnknownRelationError(f"unknown relation {f.rel!r}")
        if len(f.terms) != schema[f.rel]:
            raise ArityMismatchError(
                f"{f.rel} expects arity {schema[f.rel]}, got {len(f.terms)}")
    elif isinstance(f, Not):
        validate_formula(f.sub, schema)
    elif isinstance(f, (And, Or, Xor)):
        validate_formula(f.left, schema)
        validate_formula(f.right, schema)
    elif isinstance(f, (Exists, Forall)):
        validate_formula(f.body, schema)


# ---------------------------------------------------------------- evaluation

def _term_value(t: Term, assignment: Mapping[str, int]) -> int:
    if isinstance(t, Const):
        return t.value
    try:
        return assignment[t.name]
    except KeyError:
        raise FormulaError(f"unbound variable {t.name!r}") from None


def evaluate(f: Formula, s: Structure, assignment: Mapping[str, int]) -> bool:
    """Naive reference semantics; quantifiers enumerate the whole domain."""
    if isinstance(f, Atom):
        return s.has(f.rel, tuple(_term_value(t, assignment) for t in f.terms))
    if isinstance(f, Eq):
        return _term_value(f.left, assignment) == _term_value(f.right, assignment)
    if isinstance(f, Truth):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.sub, s, assignment)
    if isinstance(f, And):
        return evaluate(f.left, s, assignment) and evaluate(f.right, s, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, s, assignment) or evaluate(f.right, s, assignment)
    if isinstance(f, Xor):
        return evaluate(f.left, s, assignment) != evaluate(f.right, s, assignment)
    if isinstance(f, (Exists, Forall)):
        inner = dict(assignment)
        hits = []
        for d in range(s.n):
            inner[f.var] = d
            hits.append(evaluate(f.body, s, inner))
        return any(hits) if isinstance(f, Exists) else all(hits)
    raise FormulaError(f"unknown node {f!r}")


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<arrow>->)
      | (?P<sym>[(),=!&|^.])
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    )""", re.VERBOSE)

_KEYWORDS = {"exists", "forall", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaError(f"unexpected character {rest[0]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "ident":
            word = m.group("ident")
            tokens.append((word if word in _KEYWORDS else "ident", word))
        elif m.lastgroup == "arrow":
            tokens.append(("->", "->"))
        else:
            tokens.append((m.group("sym"), m.group("sym")))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    """Recursive descent; precedence ! > & > ^ > | > -> > quantifier body."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> str:
        tok, text = self.next()
        if tok != kind:
            raise FormulaError(f"expected {kind!r}, got {text or 'end of input'!r}")
        return text

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek() != "eof":
            raise FormulaError(f"trailing input at {self.tokens[self.i][1]!r}")
        return f

    def formula(self) -> Formula:
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.implication()
            return Or(Not(left), right)  # sugar, desugared at parse time
        return left

    def disjunction(self) -> Formula:
        f = self.xor()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.xor())
        return f

    def xor(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "^":
            self.next()
            f = Xor(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "!":
            self.next()
            return Not(self.unary())
        if kind in ("exists", "forall"):
            self.next()
            var = self.expect("ident")
            self.expect(".")
            body = self.formula()
            return Exists(var, body) if kind == "exists" else Forall(var, body)
        return self.primary()

    def primary(self) -> Formula:
        kind, text = self.next()
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "ident" and self.peek() == "(":
            self.next()
            terms: list[Term] = []
            if self.peek() != ")":
                terms.append(self.term())
                while self.peek() == ",":
                    self.next()
                    terms.append(self.term())
            self.expect(")")
            return Atom(text, tuple(terms))
        if kind in ("ident", "num"):
            left: Term = Var(text) if kind == "ident" else Const(int(text))
            self.expect("=")
            return Eq(left, self.term())
        raise FormulaError(f"unexpected token {text or 'end of input'!r}")

    def term(self) -> Term:
        kind, text = self.next()
        if kind == "ident":
            return Var(text)
        if kind == "num":
            return Const(int(text))
        raise FormulaError(f"expected a term, got {text!r}")


def parse_formula(text: str) -> Formula:
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------- printing

_PREC = {Or: 1, Xor: 2, And: 3, Not: 4}


def _pp_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else str(t.value)


def pretty(f: Formula, _ctx: int = 0) -> str:
    """Minimal-parenthesis text; parse_formula(pretty(f)) == f structurally."""
    if isinstance(f, Truth):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(_pp_term(t) for t in f.terms)})"
    if isinstance(f, Eq):
        return f"{_pp_term(f.left)} = {_pp_term(f.right)}"
    if isinstance(f, Not):
        return "!" + pretty(f.sub, _PREC[Not])
    if isinstance(f, (And, Or, Xor)):
        op = {And: " & ", Or: " | ", Xor: " ^ "}[type(f)]
        mine = _PREC[type(f)]
        # left child may sit at equal precedence (left associativity)
        text = pretty(f.left, mine) + op + pretty(f.right, mine + 1)
        return f"({text})" if mine < _ctx else text
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        text = f"{kw} {f.var}. {pretty(f.body, 0)}"
        return f"({text})" if _ctx > 0 else text
    raise FormulaError(f"unknown node {f!r}")


# ---------------------------------------------------------------- builtins

def materialise_builtins(n: int, which: Iterable[str]) -> Structure:
    """Read-only built-in relations over 0..n-1.

    leq/2 is the natural order; bit/2 holds (i, j) when bit j of i is 1,
    with bit positions 1-based from the least significant bit.
    """
    contents: dict[str, list[tuple[int, ...]]] = {}
    schema: dict[str, int] = {}
    for name in which:
        if name == "order":
            schema["leq"] = 2
            contents["leq"] = [(i, j) for i in range(n) for j in range(n) if i <= j]
        elif name == "bit":
            schema["bit"] = 2
            contents["bit"] = [(i, j) for i in range(n) for j in range(1, n + 1)
                               if (i >> (j - 1)) & 1]
        else:
            raise FormulaError(f"unknown builtin {name!r}")
    return Structure.make(n, schema, contents)
