"""Finite relational structures, single-tuple changes, and change scripts."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

INSERT = "ins"
DELETE = "del"


class DynLabError(Exception):
    pass


class ValidationError(DynLabError):
    pass


class UnknownRelationError(ValidationError):
    pass


class ArityMismatchError(ValidationError):
    pass


class ElementRangeError(ValidationError):
    pass


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no bound
        return float("inf")


PHYSICAL_MEMORY = _physical_memory()


def check_fits(what: str, sizes: Mapping[str, int]) -> None:
    """Raise DynLabError, naming the largest part, when the parts' byte
    sizes together exceed physical memory; call before allocating."""
    need = sum(sizes.values())
    if need > PHYSICAL_MEMORY:
        name = max(sizes, key=sizes.__getitem__)
        raise DynLabError(
            f"{what} would need {need:,} bytes, more than the "
            f"{PHYSICAL_MEMORY:,} bytes of physical memory; the largest part "
            f"is {name} at {sizes[name]:,} bytes")


class ScriptSyntaxError(DynLabError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Change:
    op: str  # INSERT or DELETE
    relation: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.op not in (INSERT, DELETE):
            raise ValidationError(f"unknown change op {self.op!r}")

    def __str__(self) -> str:
        return f"{self.op} {self.relation} {' '.join(map(str, self.args))}".rstrip()


@dataclass(frozen=True)
class Checkpoint:
    """Query marker inside a change script."""


CHECKPOINT = Checkpoint()


@dataclass(frozen=True)
class Structure:
    """Immutable finite structure: domain 0..n-1 plus named relations.

    relations maps name -> (arity, frozenset of tuples).
    """

    n: int
    relations: Mapping[str, tuple[int, frozenset[tuple[int, ...]]]]

    @staticmethod
    def make(n: int, schema: Mapping[str, int],
             contents: Mapping[str, Iterable[tuple[int, ...]]] | None = None) -> "Structure":
        if n < 0:
            raise ValidationError("domain size must be non-negative")
        rels = {}
        for name, arity in schema.items():
            tuples = frozenset(tuple(t) for t in (contents or {}).get(name, ()))
            for t in tuples:
                check_tuple(name, arity, t, n)
            rels[name] = (arity, tuples)
        return Structure(n, rels)

    def arity(self, name: str) -> int:
        try:
            return self.relations[name][0]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self.relations[name][1]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def has(self, name: str, args: tuple[int, ...]) -> bool:
        return tuple(args) in self.tuples(name)

    def merged(self, other: "Structure") -> "Structure":
        """Combine relation maps (disjoint names) over the same domain."""
        assert self.n == other.n
        rels = dict(self.relations)
        for name, val in other.relations.items():
            if name in rels:
                raise ValidationError(f"duplicate relation {name!r} in merge")
            rels[name] = val
        return Structure(self.n, rels)


def check_tuple(name: str, arity: int, args: tuple[int, ...], n: int) -> None:
    """Raise ArityMismatchError unless `args` has `arity` elements and
    ElementRangeError unless each lies in the domain 0..n-1: the one
    check of every tuple that enters the workbench."""
    if len(args) != arity:
        raise ArityMismatchError(f"{name} expects arity {arity}, got {len(args)}")
    for v in args:
        if not 0 <= v < n:
            raise ElementRangeError(f"element {v} out of range [0, {n}) in {name}")


def validate_change(s: Structure, c: Change) -> None:
    check_tuple(c.relation, s.arity(c.relation), c.args, s.n)


def apply_change(s: Structure, c: Change) -> Structure:
    """Add/remove one tuple; `s` itself on a non-effective change."""
    validate_change(s, c)
    arity, tuples = s.relations[c.relation]
    if (c.args in tuples) == (c.op == INSERT):
        return s
    rels = dict(s.relations)
    rels[c.relation] = (arity, tuples | {c.args} if c.op == INSERT
                        else tuples - {c.args})
    return Structure(s.n, rels)


def is_effective(s: Structure, c: Change) -> bool:
    return apply_change(s, c) is not s


# a directed graph with a unary colour relation
GRAPH_SCHEMA = {"E": 2, "R": 1}


def coloured_graph(n: int, edges: Iterable[tuple[int, int]] = (),
                   coloured: Iterable[int] = ()) -> Structure:
    """Directed graph with a unary colour relation: relations E/2 and R/1."""
    return Structure.make(n, GRAPH_SCHEMA,
                          {"E": [tuple(e) for e in edges],
                           "R": [(v,) for v in coloured]})


def graph_edges(s: Structure) -> frozenset[tuple[int, int]]:
    return s.tuples("E")


def graph_coloured(s: Structure) -> frozenset[int]:
    return frozenset(v for (v,) in s.tuples("R"))


@dataclass(frozen=True)
class ChangeScript:
    domain_size: int
    declared: Mapping[str, int]  # relation name -> arity (declared or inferred)
    entries: tuple[Change | Checkpoint, ...]

    def changes(self) -> list[Change]:
        return [e for e in self.entries if isinstance(e, Change)]

    def num_checkpoints(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, Checkpoint))


def directives(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (line number, keyword, arguments) for each line of a
    line-oriented input file that is not blank once its `#` comment is
    cut; the one line loop of the script, structure, program and circuit
    parsers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield lineno, words[0], words[1:]


def declare(args: list[str], lineno: int, declared: dict[str, int],
            kw: str) -> None:
    """Read the one `<Name>/<arity>` argument of a `kw` line into
    `declared`; a name redeclared with another arity is an error."""
    name, _, ar = args[0].partition("/") if len(args) == 1 else ("", "", "")
    if not name or not ar.isdigit():
        raise ScriptSyntaxError(f"expected: {kw} <Name>/<arity>", lineno)
    if declared.setdefault(name, int(ar)) != int(ar):
        raise ArityMismatchError(
            f"line {lineno}: relation {name} redeclared with arity {ar}")


def _parse_entries(text: str, verbs: Mapping[str, str | None]) -> ChangeScript:
    """Read `domain` and `rel` lines and one entry per verb line: `verbs`
    maps each verb to its change op, or to None for a checkpoint.
    Undeclared relation arities are inferred from first use."""
    domain: int | None = None
    declared: dict[str, int] = {}
    entries: list[Change | Checkpoint] = []
    for lineno, kw, args in directives(text):
        if kw == "domain":
            if domain is not None:
                raise ScriptSyntaxError("duplicate domain line", lineno)
            if len(args) != 1 or not args[0].isdigit():
                raise ScriptSyntaxError("expected: domain <n>", lineno)
            domain = int(args[0])
        elif kw == "rel":
            declare(args, lineno, declared, kw)
        elif kw not in verbs:
            raise ScriptSyntaxError(f"unknown directive {kw!r}", lineno)
        elif verbs[kw] is None:
            if args:
                raise ScriptSyntaxError(f"{kw} takes no arguments", lineno)
            entries.append(CHECKPOINT)
        else:
            if domain is None:
                raise ScriptSyntaxError(
                    f"domain must be declared before {kw} lines", lineno)
            if not args:
                raise ScriptSyntaxError(f"expected: {kw} <Name> <id>...", lineno)
            name = args[0]
            try:
                ids = tuple(int(p) for p in args[1:])
            except ValueError:
                raise ScriptSyntaxError("ids must be decimal integers", lineno) from None
            try:
                check_tuple(name, declared.setdefault(name, len(ids)), ids, domain)
            except ValidationError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            entries.append(Change(verbs[kw], name, ids))
    if domain is None:
        raise ScriptSyntaxError("missing domain line")
    return ChangeScript(domain, declared, tuple(entries))


def parse_script(text: str) -> ChangeScript:
    """Parse the line-based script grammar: `domain`, optional `rel`
    declarations, `ins`/`del` changes and `query` checkpoints."""
    return _parse_entries(text, {INSERT: INSERT, DELETE: DELETE, "query": None})


def format_script(script: ChangeScript) -> str:
    lines = [f"domain {script.domain_size}"]
    for name in sorted(script.declared):
        lines.append(f"rel {name}/{script.declared[name]}")
    for e in script.entries:
        lines.append("query" if isinstance(e, Checkpoint) else str(e))
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    """Parse the structure file format: the script grammar with `set`,
    an insertion, as its only verb."""
    script = _parse_entries(text, {"set": INSERT})
    contents: dict[str, list[tuple[int, ...]]] = {}
    for c in script.changes():
        contents.setdefault(c.relation, []).append(c.args)
    return Structure.make(script.domain_size, script.declared, contents)


def format_structure(s: Structure) -> str:
    lines = [f"domain {s.n}"]
    for name in sorted(s.relations):
        lines.append(f"rel {name}/{s.arity(name)}")
    for name in sorted(s.relations):
        for t in sorted(s.tuples(name)):
            lines.append(f"set {name} {' '.join(map(str, t))}".rstrip())
    return "\n".join(lines) + "\n"
