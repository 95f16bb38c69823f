"""Vectorised formula evaluation over boolean numpy arrays.

Computes { b̄ : φ(params; b̄) } for a whole free-variable space at once.
The first call for a formula object, a set of parameter names and an
order of free variables lowers the formula into one straight-line numpy
kernel (generated Python source, compiled once) and caches it by the
formula's id; later calls look it up once and run it.  Semantically
identical to formulas.evaluate, which stays the slow reference
(property-tested against it).

The lowering
- gives every atom a precomputed transpose and broadcast index, so an
  atom is one or two numpy view operations;
- evaluates subformulas that mention no free variable (only parameters
  and constants) as Python scalars, which pick a branch instead of
  allocating full arrays;
- evaluates a repeated subformula once (structural hash-consing);
- checks, at run time, whether an array operand is one of the shared
  all-false / all-true constants a branch produced, and then skips the
  operation or the other operand (`x & y` with x all-false is all-false).
  An operand that both outcomes of such a test read is named first, so
  the source grows linearly with the formula;
- reads an atom through a parameter or constant whose view broadcasts
  to more axes (`E(x1, w)` over (x1, x2, x3)) from that view, read and
  counted once per call (`r1[:, p0]`, then `c0[:, None, None]` at each
  position), and makes it that all-false constant at run time when the
  view is all-false, so that every product, XOR and disjunct built on
  it is skipped.  The count is numpy's without its array-function
  dispatch (`_count`), about half the cost of `np.count_nonzero`;
- reads a relation whole, in axis order over every axis of ndim >= 2
  and outside a chain (`P(y1, y2, y3)` over (y1, y2, y3)), as that
  all-false constant at run time when the relation holds no true cell
  (`_any`, which counts a SliceArray part by part and never densifies
  it), where the constant skips a computation (`_order`): an operand
  of an And whose other operand is a full computation over every axis
  (a parameter-free mask, `!R(y1) & !R(y2) & !y1 = y2`), and, through
  it, the operands of an And, and of an Or, XOR or quantifier whose
  operands may all be all-false.  Such an And lowers first the operand
  that may be all-false, so the mask of `mask & (P ^ X)` (prop_k's
  P_{l,m} rules) is computed only in a call where P or X holds a true
  cell.  A read of one axis stays uncounted, as its count costs what
  it would skip;
- returns `stored(False, shape)`, the shared constant, from a root that
  is all-false at run time, not a copy of that constant;
- reads `x = t`, t a parameter or constant, as row t of the cached
  identity, a view (`eye[p0, None, :]`), under t's range test, since
  `eye[-1]` would read the last row; no `(arange == t)` is allocated;
- computes an And, Or or XOR whose operand is a plain array negation
  `~Y` in one numpy call: `x & ~Y` is `x > Y`, `x | ~Y` is `x >= Y`
  and `x ^ ~Y` is `x == Y` on booleans;
- tests a parameter's range (`k0 = 0 <= p0 < n`) once per branch: an
  atom inside the slice of a split on that parameter reads without it,
  and a split inside it on the same parameter runs unguarded.  What a
  scalar test guards holds the range tests the test implies: inside
  `if (r0[p0] if k0 else False):` no atom tests k0;
- lowers `x = t & ψ`, x a free variable and t a parameter or constant,
  with x bound to t inside ψ, and computes a rule whose disjunction has
  such a disjunct (`!(x = t) & OLD | x = t & NEW`) as the formula with
  x = t false, overwritten on the slice x = t by the formula with x
  bound to t: the slice has one axis less;
- does not split on a disjunct with an equality already known false
  (one that an outer split refuted): that disjunct is false there;
- starts a chain at a split of the rule's root whose base is a whole
  atom of one relation, in axis order (`T(z, x, y)` with frees
  (z, x, y)): the rule keeps T wherever its equalities fail.  The slice
  splits again on an axis still free there, as long as its base stays T
  on the cells the chain binds (`T(z, x, y) | z = w & L(z, x) & y = v`
  binds the column (w, :, v), `F(z, x) | z = w & x = v & C(z)` the point
  (w, v)).  Inside a chain a slice is lowered in the compact shape of
  the cells it binds, its axes numbered among the axes still free, so
  the innermost split computes its value on those cells alone
  (`r1[p0, :, p1] | r0[p0, :]` for the column, not a broadcast over
  three axes).  It reads T's cells there once, for the value and for the
  compare (an atom of T under a quantifier, which adds an axis, is read
  as any other atom): when they are equal the rule's value is T's own
  array, and no copy is made.  Otherwise one copy is made and the cells
  written: one new slice of a SliceArray when axis 0 is bound
  (`SliceArray.written`, the one write a SliceArray has), a dense copy
  otherwise;
- writes a slice into the base itself when the base is an array the
  kernel made and reads no more (an operation's result or an earlier
  split's), so a rule makes at most one full-shape copy however many
  splits it nests;
- starts any other split whose base is a whole atom of one relation
  from a dense copy of that relation's array, made up front, and
  writes its slice into that copy;
- drops a named intermediate that nothing reads, and frees every other
  one after its last use.

One storage rule.  A kernel computes a value and never writes to an
array of `rels`.  It returns the relation's array itself for a rule
whose whole value is such an atom (an identity rule `T(x) := T(x)`) or
whose chain finds its bound cells unchanged, and `stored(value, shape)`
of its value otherwise.  `stored` is the one place that decides how a
value is kept, for kernels and states alike (`stored_relation` builds a
relation's array by the same rule): a SliceArray as it is, a bool as
the shared read-only constant array (one object per shape and value, a
SliceArray when large), any other array copied unless it
is fresh and then made read-only.  An array of ndim >= 2 with at least
_SHARE_MIN cells is kept as a `SliceArray`: the tuple of its read-only
axis-0 slices, so that a chain's write on axis 0 makes one new slice
and shares the others with the array it started from (path copying).
Every other write goes into a dense copy, which `stored` slices again.
Kernels read SliceArrays as they read numpy arrays: an atom with a
constant or parameter first reads one slice, any other atom a dense
copy made for that one read.  `stored` takes its value over, so a
relation's own array leaves a kernel only as the return of an identity
rule or of an unchanged chain, never through `stored`.

A kernel keeps nothing from one call to the next: every call computes
its value from `rels`, `n` and `params` alone.

Kernels hold no program names: relation and parameter names are bound
as default arguments, so rules of the same shape share one code object.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import itertools
import math
import operator
import re
import sys
import types
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

try:  # the count without numpy's array-function dispatch
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:
    try:  # numpy < 2
        from numpy.core.multiarray import count_nonzero as _count_nonzero
    except ImportError:  # the same count, dispatched
        _count_nonzero = np.count_nonzero

from .formulas import (And, Atom, Const, Eq, Exists, Forall, Formula,
                       FormulaError, Not, Or, Truth, Var, Xor)

Kernel = Callable[[Mapping[str, np.ndarray], int, Mapping[str, int]], np.ndarray]

# Kernels kept, oldest dropped first.  The catalog has 718 rules;
# throwaway formulas (property tests, CLI) cycle out.
CACHE_SIZE = 4096
# Kernels by the id of their formula: (formula, frees, parameter names,
# kernel).  A formula evaluated under other frees or parameter names is
# lowered again, and its new kernel replaces the old one.
_kernels: dict[int, tuple[Formula, tuple[str, ...], frozenset, Kernel]] = {}
# Compiled code by the digest of its source.  Relation and parameter
# names are arguments of the code, bound per kernel, so rules of the
# same shape share one code object (the catalog's 718 rules have 238
# shapes).
_codes: OrderedDict[bytes, types.CodeType] = OrderedDict()


def bulk_eval(f: Formula, rels: Mapping[str, np.ndarray], n: int,
              params: Mapping[str, int], frees: tuple[str, ...]) -> np.ndarray:
    """Boolean array of shape (n,)*len(frees), axis i ranging over frees[i].

    The array is one of the arrays of `rels`, returned as it is, or a
    value as `stored` keeps it.  It may share memory, or SliceArray
    slices, with `rels` and with earlier results; kernels never write to
    `rels`.  `rels` may hold numpy arrays and SliceArrays alike, and a
    result that started from a SliceArray of `rels` may be one whatever
    its size.
    """
    hit = _kernels.get(id(f))
    if hit is None or hit[0] is not f or hit[1] != frees \
            or params.keys() != hit[2]:
        hit = _kernel(f, tuple(params), tuple(frees))
    try:
        return hit[3](rels, n, params)
    except KeyError as exc:
        raise FormulaError(f"unknown relation {exc.args[0]!r}") from None
    except _ArityMismatch:
        raise FormulaError(f"arity mismatch on {_mismatched(f, rels)!r}") from None


def _kernel(f: Formula, params: tuple[str, ...], frees: tuple[str, ...]):
    """The cache entry of f for these parameter names and frees, made
    now: f lowered on its own into one kernel, which replaces any entry
    of f.  `bulk_eval` calls it when the cache has no entry for the
    call, and `interpreter._plan` for each rule of a change before the
    change's first step, so that the step finds every kernel made."""
    kernel = _deep(f, lambda: _function(*_Lowering(f, params, frees).finish()))
    _kernels.pop(id(f), None)
    entry = _kernels[id(f)] = (f, frees, frozenset(params), kernel)
    if len(_kernels) > CACHE_SIZE:
        del _kernels[next(iter(_kernels))]
    return entry


def _deep(f: Formula, fn: Callable):
    """fn(), a step of lowering f.  Lowering recurses a few frames per
    level of f, so the recursion limit is raised for deep formulas while
    it runs."""
    depth, level = 0, {id(f): f}
    while level:  # level by level: a shared subformula is visited once a level
        depth += 1
        level = {id(c): c for g in level.values() for c in _children(g)}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * depth)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------- runtime

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(False)  # write=False; the keyword form costs twice as much
    return a


# room for a zero array per shape of the catalog's relations at the n
# of its runs (n 4..12 and arities 0..4 give 37 shapes, all dense), and
# for the part of each large shape that `_full_slices` keeps
@functools.lru_cache(maxsize=128)
def _full(shape: tuple[int, ...], value: bool) -> np.ndarray:
    """The read-only constant array of a rule whose value is one bool or of
    an empty relation, or the one part of every slice of such a
    SliceArray."""
    return _readonly(np.full(shape, value, dtype=bool))


@functools.lru_cache(maxsize=64)
def _eye(n: int) -> np.ndarray:
    return _readonly(np.eye(n, dtype=bool))


def _diag(sub: np.ndarray, spec: str) -> np.ndarray:
    """Collapse repeated variables of an atom to their diagonal."""
    return np.einsum(spec, sub.astype(np.uint8)).astype(bool)


def _take(a, shape: tuple[int, ...]):
    """`a` itself when it is a fresh, full-shape, contiguous, writable
    array (an operation's own output); otherwise a broadcast copy.  Atoms
    are views and the shared constants are read-only, so neither is ever
    handed out."""
    flags = a.flags
    if a.base is None and a.shape == shape and flags.writeable \
            and flags.c_contiguous:
        return a
    return _copy(a, shape)


def _copy(a, shape: tuple[int, ...]):
    """A new writable, dense array of `a` broadcast to `shape`."""
    if a.shape == shape:
        return a.copy()  # C order; twice as fast as a broadcast fill
    out = np.empty(shape, dtype=bool)
    out[...] = a
    return out


def _differs(cells: np.ndarray, value: np.ndarray) -> bool:
    """Whether `value`, which broadcasts to the shape of `cells`, differs
    from `cells` somewhere.  A value of as many cells holds them in the
    same order, and bytes compare several times faster than
    `(cells != value).any()` at n = 128."""
    if value is cells:
        return False
    if value.size == cells.size:
        return cells.tobytes() != value.tobytes()
    return bool((cells != value).any())


class SliceArray:
    """A read-only boolean array of ndim >= 2 kept as the tuple of its
    axis-0 slices (`parts`), each a read-only numpy array that other
    SliceArrays may share.

    An index whose first entry is an int reads one part; any other index,
    and `np.asarray`, build a dense copy for that one use (none is kept,
    as it would double what a state holds).  `==` and `!=` are
    elementwise, as on numpy arrays.  `written` is its one write: a new
    SliceArray with one part copied and written."""

    __slots__ = ("parts", "shape", "ndim", "size", "__weakref__")
    dtype = np.dtype(bool)
    flags = types.SimpleNamespace(writeable=False)

    def __init__(self, parts: tuple[np.ndarray, ...], shape: tuple[int, ...]):
        self.parts = parts
        self.shape = shape
        self.ndim = len(shape)
        self.size = math.prod(shape)

    def __getitem__(self, index):
        if index.__class__ is tuple:
            if index and index[0].__class__ is int:
                return self.parts[index[0]][index[1:]]
        elif index.__class__ is int:
            return self.parts[index]
        return self.__array__()[index]

    def __setitem__(self, index, value):
        raise ValueError("assignment destination is read-only")

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a SliceArray has no one buffer to share")
        out = np.empty(self.shape, dtype=bool)
        for i, part in enumerate(self.parts):
            out[i] = part
        return out if dtype is None else out.astype(dtype, copy=False)

    def copy(self) -> np.ndarray:
        """A dense, writable copy."""
        return self.__array__()

    def transpose(self, *axes) -> np.ndarray:
        return self.__array__().transpose(*axes)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __ne__(self, other):
        return self._compare(other, operator.ne)

    def _compare(self, other, op) -> np.ndarray:
        if other.__class__ is not SliceArray or other.shape != self.shape:
            return op(self.__array__(), other)
        out = np.empty(self.shape, dtype=bool)
        for i, (a, b) in enumerate(zip(self.parts, other.parts)):
            out[i] = op(a, b) if a is not b else op is operator.eq
        return out

    def written(self, at: int, index: tuple, value) -> "SliceArray":
        """This array with `value` written at `index` of its slice `at` of
        axis 0 (`()` for the whole slice): that slice copied once, every
        other shared.  It compares nothing: a kernel compares the cells
        before it writes them."""
        part = self.parts[at]
        new = part.copy() if index else np.empty(part.shape, dtype=bool)
        new[index] = value
        return SliceArray(self.parts[:at] + (_readonly(new),)
                          + self.parts[at + 1:], self.shape)


@functools.lru_cache(maxsize=128)
def _full_slices(shape: tuple[int, ...], value: bool) -> SliceArray:
    """The SliceArray a state keeps of a constant value of a large shape:
    every part the one read-only `_full` part, and one object per shape,
    so that a relation that stays constant is handed on as itself."""
    return SliceArray((_full(shape[1:], value),) * shape[0], shape)


def _any(a) -> bool:
    """Whether array `a` holds a true cell; a SliceArray counted part by
    part, never densified, its shared zero part skipped."""
    if a.__class__ is SliceArray:
        zero = _full(a.shape[1:], False)
        return any(part is not zero and _count_nonzero(part)
                   for part in a.parts)
    return bool(_count_nonzero(a))


def stored(a, shape: tuple[int, ...]):
    """The value `a` of shape `shape` as a state keeps it, and as every
    kernel but an identity rule's returns it; `a` is taken over.  A
    SliceArray is kept as it is.  A bool becomes the shared read-only
    constant array (`_full`, or `_full_slices` when large).  Any other
    array is taken as `_take` takes it (copied unless it is fresh), made
    read-only, and kept as a SliceArray of views of it when large: ndim
    >= 2 and at least _SHARE_MIN cells."""
    if a.__class__ is np.ndarray:
        # _take's test, inline, so that a kernel's result costs one call
        flags = a.flags
        if a.base is not None or a.shape != shape or not flags.writeable \
                or not flags.c_contiguous:
            a = _copy(a, shape)
        a.setflags(False)  # write=False; the keyword form costs twice as much
        if a.ndim < 2 or a.size < _SHARE_MIN:
            return a
        return SliceArray(tuple(a), shape)
    if a.__class__ is SliceArray:
        return a
    if len(shape) < 2 or math.prod(shape) < _SHARE_MIN:
        return _full(shape, a)
    return _full_slices(shape, a)


def stored_relation(tuples, arity: int, n: int):
    """The array of a relation as `stored` keeps it.  An empty one is
    the constant `stored` keeps of False; a large one is built slice by
    slice, never as one array of n**arity cells, and every empty slice
    is one shared read-only zero part."""
    shape = (n,) * arity
    if not tuples:
        return stored(False, shape)
    if arity < 2 or n ** arity < _SHARE_MIN:
        return stored(relation_to_array(tuples, arity, n), shape)
    rows: dict[int, list] = {}
    for t in tuples:
        rows.setdefault(t[0], []).append(t[1:])
    zero = _full(shape[1:], False)
    return SliceArray(tuple(
        _readonly(relation_to_array(rows[i], arity - 1, n)) if i in rows
        else zero for i in range(n)), shape)


class _ArityMismatch(Exception):
    """A kernel was given an array whose ndim is not its atom's arity."""


def _mismatched(f: Formula, rels) -> str:
    stack, seen = [f], set()
    while stack:
        g = stack.pop()
        if isinstance(g, Atom) and rels[g.rel].ndim != len(g.terms):
            return g.rel
        if id(g) not in seen:
            seen.add(id(g))
            stack.extend(_children(g))
    raise AssertionError("no mismatched atom")


def _children(f: Formula) -> list[Formula]:
    return [getattr(f, name) for name in ("sub", "left", "right", "body")
            if hasattr(f, name)]


# The fewest cells of an array of ndim >= 2 for `stored` to keep it as
# slices (a SliceArray); a smaller one is one dense array.  The value has
# not been tuned for slices.
_SHARE_MIN = 1 << 15

# namespace of every kernel; the all-false / all-true constants Z<d> and
# O<d> of shape (1,)*d are added on first use
_NAMESPACE: dict = {"__builtins__": builtins, "np": np, "_take": _take,
                    "_copy": _copy, "_stored": stored, "_any": _any,
                    "_differs": _differs, "_count": _count_nonzero,
                    "SliceArray": SliceArray, "_diag": _diag, "_eye": _eye,
                    "_ArityMismatch": _ArityMismatch}


def _constant(value: bool, depth: int) -> str:
    name = f"{'O' if value else 'Z'}{depth}"
    if name not in _NAMESPACE:
        _NAMESPACE[name] = _readonly(np.full((1,) * depth, value, dtype=bool))
    return name


# ---------------------------------------------------------------- lowering

# Nesting limits of the generated source: deeper expressions are named,
# deeper branches are not taken.
_MAX_NEST = 40
_MAX_LEVEL = 30
# temporaries (t<i>) and the locals that hold a parameter view for the
# rest of a call once read (c<i>, see `_Lowering._view`)
_TEMP = re.compile(r"\b[tc]\d+\b")
# context keys: the (axis, term) equalities known to be false, the
# `_Cells` of the enclosing splits of a chain, a mark that no case split
# may be made, the range tests that enclosing branches hold, and a mark
# that an all-false value here skips a computation (see `_order`)
_NE = "!="
_AT = "@"
_NO_SPLIT = "-"
_HELD = "+"
_SKIPS = "0"


@dataclass(frozen=True)
class _Cells:
    """The cells that the enclosing splits of a chain bind, each base the
    relation array `rel` itself: (axis, term) per split, outermost first,
    axes numbered as at the chain's start.  Inside the chain an axis is
    numbered among the axes still free, `axes` (by their number at the
    start), so a value there has the compact shape of the bound cells.
    The temporary `temp` holds the rule's value: `rel` until the
    innermost split writes the cells.  The temporary `read` holds rel's
    bound cells, read once for the value and the compare."""

    rel: str
    cells: tuple
    temp: str
    axes: tuple
    read: str

    @functools.cached_property
    def view(self) -> tuple:
        """The term of each axis of the chain's start, here."""
        bound = dict(self.cells)
        return tuple(bound[a] if a in bound else ("axis", self.axes.index(a))
                     for a in range(len(self.axes) + len(self.cells)))

    def index(self) -> str:
        """The index of the bound cells in `rel`: the term of each bound
        axis, a full slice of each free one."""
        bound = dict(self.cells)
        return ", ".join(str(bound[a][1]) if a in bound else ":"
                         for a in range(len(self.axes) + len(self.cells)))


@dataclass(frozen=True)
class _Val:
    """A lowered subformula.  `code` is a Python expression; `array`
    tells an array of ndim = depth from a scalar (bool).  `const` is the
    value when known at compile time (all-false/all-true for arrays);
    `may` holds the constants an array may turn out to be at run time,
    and then `code` is a name.  `whole` names the relation array (`r<i>`)
    whose value, in axis order, this is on the cells the enclosing
    splits bind (on all cells outside a split).  `chain` names the
    relation array that the temporary `code` holds unless a split wrote
    cells of a copy.  `neg` is X when `code` is the plain negation `(~X)`
    of an array.  `implies` holds the range tests that a scalar's truth
    implies, and those that its falsity implies."""

    code: str
    array: bool
    const: bool | None = None
    may: frozenset = frozenset()
    nest: int = 0
    whole: str = ""
    chain: str = ""
    neg: str = ""
    implies: tuple = (frozenset(), frozenset())


@dataclass
class _Block:
    stmts: list = field(default_factory=list)
    parent: "_Block | None" = None
    memo: dict = field(default_factory=dict)
    level: int = 0

    def child(self) -> "_Block":
        return _Block(parent=self, level=self.level + 1)

    def lookup(self, key):
        b = self
        while b is not None:
            if key in b.memo:
                return b.memo[key]
            b = b.parent
        return None


class _Lowering:
    """Lowers one formula for one set of parameter names and one order of
    free variables into a kernel `(rels, n, params) -> array`."""

    def __init__(self, f: Formula, params: tuple[str, ...],
                 frees: tuple[str, ...]):
        self.f = f
        self.frees = frees
        # by id of a subformula of f: structural id and free variables; by
        # structural id: the atoms (relation, arity) it reads
        self.cid: dict[int, int] = {}
        self.fv: dict[int, frozenset[str]] = {}
        self.interned: dict[tuple, int] = {}
        self.atoms: dict[int, frozenset[tuple[str, int]]] = {}
        self.arities: dict[str, set[int]] = {}
        for rel, arity in self.atoms[self._scan(f)]:
            self.arities.setdefault(rel, set()).add(arity)
        unbound = self.fv[id(f)] - set(params) - set(frees)
        if unbound:
            raise FormulaError(f"unbound variable {min(unbound)!r}")
        # name -> ("axis", position) | ("param", name) | ("same", term), the
        # last for a variable an equality binds to a parameter or constant.
        # A name binds its last axis; parameters win over free variables.
        self.ctx: dict[str, tuple[str, object]] = {
            v: ("axis", i) for i, v in enumerate(frees)}
        self.param_local: dict[str, str] = {}
        for p in params:
            self.ctx[p] = ("param", p)
        self.uses: dict[int, int] = {}
        self._count(f)
        self.temps = 0
        # temporary -> the temporaries whose array its value may be
        self.aliases: dict[str, set[str]] = {}
        # temporaries that hold a chain's read of its relation's cells:
        # never written in place
        self.kept: set[str] = set()
        self.once: dict[tuple, str] = {}        # view -> c<i> (see `_view`)
        self.falsy: dict[tuple, bool] = {}      # see `_falsy`

    # -- analysis: structural ids, free variables and uses, each node once

    def _scan(self, f: Formula) -> int:
        """f's structural id; its free variables and the atoms (relation,
        arity) it reads are recorded once."""
        i = id(f)
        if i in self.cid:
            return self.cid[i]
        atoms = self.atoms
        if isinstance(f, Atom):
            fv = frozenset(t.name for t in f.terms if isinstance(t, Var))
            key, reads = (Atom, f.rel, f.terms), frozenset([(f.rel, len(f.terms))])
        elif isinstance(f, Eq):
            fv = frozenset(t.name for t in (f.left, f.right) if isinstance(t, Var))
            key, reads = (Eq, f.left, f.right), frozenset()
        elif isinstance(f, Truth):
            fv, key, reads = frozenset(), (Truth, f.value), frozenset()
        elif isinstance(f, Not):
            sub = self._scan(f.sub)
            fv, key, reads = self.fv[id(f.sub)], (Not, sub), atoms[sub]
        elif isinstance(f, (And, Or, Xor)):
            left, right = self._scan(f.left), self._scan(f.right)
            fv = self.fv[id(f.left)] | self.fv[id(f.right)]
            key, reads = (type(f), left, right), atoms[left] | atoms[right]
        elif isinstance(f, (Exists, Forall)):
            body = self._scan(f.body)
            fv = self.fv[id(f.body)] - {f.var}
            key, reads = (type(f), f.var, body), atoms[body]
        else:
            raise FormulaError(f"unknown node {f!r}")
        self.fv[i] = fv
        self.cid[i] = c = self.interned.setdefault(key, len(self.interned))
        atoms.setdefault(c, reads)
        return c

    def _count(self, f: Formula) -> None:
        """Occurrences of each structure; a repeated one is named, so its
        parts are counted once."""
        key = self.cid[id(f)]
        seen = key in self.uses
        self.uses[key] = self.uses.get(key, 0) + 1
        if seen:
            return
        if isinstance(f, Not):
            self._count(f.sub)
        elif isinstance(f, (And, Or, Xor)):
            self._count(f.left)
            self._count(f.right)
        elif isinstance(f, (Exists, Forall)):
            self._count(f.body)

    def _is_array(self, f: Formula, ctx) -> bool:
        return any(ctx[v][0] == "axis" for v in self.fv[id(f)])

    # -- code generation

    def finish(self) -> tuple[str, tuple]:
        """The kernel's source and the values of its arguments after
        `rels, n, params`: relation names and parameter names."""
        source = self.source()
        return source, tuple(sorted(self.arities)) + tuple(self.param_local)

    def source(self) -> str:
        depth = len(self.frees)
        body = _Block()
        root = self.gen(self.f, self.ctx, depth, (), body)
        if root.whole:  # an identity rule: the relation's own array
            ret = f"return {root.whole}"
        elif root.chain:  # the relation's own array unless a split wrote
            body.stmts.append(("if", f"{root.code} is {root.chain}",
                               [("return", f"return {root.chain}")], [], None))
            ret = f"return _stored({root.code}, {_shape(depth)})"
        else:
            value = root.code if root.const is None else root.const
            if False in root.may:  # the shared constant, not a copy of Z<d>
                value = f"False if {value} is {_constant(False, depth)} " \
                    f"else {value}"
            ret = f"return _stored({value}, {_shape(depth)})"
        body.stmts.append(("return", ret))
        _insert_dels(body.stmts, ())
        # the names of the relations (R<i>) and parameters (P<i>) it reads
        args = [f"R{i}" for i in range(len(self.arities))] + \
            [f"P{i}" for i in range(len(self.param_local))]
        lines = []
        _render(body.stmts, 1, lines)
        used = set(re.findall(r"\b(?:[kc]\d+|eye)\b", "\n".join(lines)))
        return "\n".join(
            [f"def kernel({', '.join(['rels', 'n', 'params'] + args)}):"]
            + self._preamble(used) + lines) + "\n"

    def _preamble(self, used: set[str]) -> list[str]:
        """The kernel's first lines: its relations and their arity check,
        its parameters, and the range tests, constants and parameter
        views read once that `used` names."""
        lines = []
        checks = []
        for i, (rel, arities) in enumerate(sorted(self.arities.items())):
            lines.append(f"    r{i} = rels[R{i}]")
            checks += [f"r{i}.ndim != {a}" for a in sorted(arities)]
        if checks:
            lines.append(f"    if {' or '.join(checks)}:")
            lines.append("        raise _ArityMismatch")
        for i, local in enumerate(self.param_local.values()):
            lines.append(f"    {local} = params[P{i}]")
            if f"k{local[1:]}" in used:
                lines.append(f"    k{local[1:]} = 0 <= {local} < n")
        if "eye" in used:
            lines.append("    eye = _eye(n)")
        once = [c for c in self.once.values() if c in used]
        if once:  # none read yet
            lines.append(f"    {' = '.join(once)} = None")
        return lines

    def _rel(self, rel: str) -> str:
        return f"r{sorted(self.arities).index(rel)}"

    def _param(self, name: str) -> str:
        if name not in self.param_local:
            self.param_local[name] = f"p{len(self.param_local)}"
        return self.param_local[name]

    def _temp(self, code: str = "") -> str:
        """A new temporary, assigned `code` (a value it may alias)."""
        self.temps += 1
        t = f"t{self.temps}"
        self.aliases[t] = {t} | self._may_be(code)
        return t

    def _may_be(self, code: str) -> set[str]:
        """The temporaries whose array the value of `code` may be."""
        return set().union(*(self.aliases.get(t, {t})
                             for t in _TEMP.findall(code)))

    def _owned(self, v: _Val, read: set[str], block: _Block) -> bool:
        """Whether v's array, if the kernel made it, may be written in
        place: it may be no temporary in `read` (those read later), none
        a memo entry holds and no chain's read of its relation's cells."""
        held = read | self.kept
        b = block
        while b is not None:
            held |= {m.code for m in b.memo.values()}
            b = b.parent
        return not self._may_be(v.code) & held

    def named(self, v: _Val, block: _Block) -> _Val:
        if v.const is not None or v.code.isidentifier():
            return v
        t = self._temp(v.code)
        block.stmts.append(("assign", t, v.code))
        return _Val(t, v.array, None, v.may, whole=v.whole, implies=v.implies)

    def shared(self, v: _Val, block: _Block) -> _Val:
        """v with code that another branch of an expression may repeat: a
        name, or the negation of a name when v is a plain negation, so
        that `x & ~Y` still folds.  An operand repeated in each branch of
        a run-time constant test is named first; otherwise the source
        would double with each operand of a chain of them."""
        if not v.neg:
            return self.named(v, block)
        t = self.named(_Val(v.neg, True), block).code
        return replace(v, code=f"(~{t})", neg=t)

    def val(self, code: str, array: bool, block: _Block, may=frozenset(),
            nest: int = 0, neg: str = "",
            implies: tuple = (frozenset(), frozenset())) -> _Val:
        v = _Val(code, array, None, frozenset(may), nest, neg=neg,
                 implies=implies)
        if may or nest > _MAX_NEST:
            v = self.named(v, block)
        return v

    def const(self, value: bool, array: bool, depth: int) -> _Val:
        code = _constant(value, depth) if array else repr(value)
        return _Val(code, array, value)

    def coerce(self, v: _Val, array: bool, depth: int, block: _Block) -> _Val:
        """A scalar as an array of the node's depth, when the node is one."""
        if not array or v.array:
            return v
        if v.const is not None:
            return self.const(v.const, True, depth)
        return self.val(f"({_constant(True, depth)} if {v.code} else "
                        f"{_constant(False, depth)})", True, block,
                        may={True, False})

    def gen(self, f: Formula, ctx, depth: int, scope: tuple,
            block: _Block) -> _Val:
        key = (self.cid[id(f)], scope)
        hit = block.lookup(key)
        if hit is not None:
            return hit
        v = self._gen(f, ctx, depth, scope, block)
        if self.uses[key[0]] > 1:
            v = self.named(v, block)
            block.memo[key] = v
        return v

    def _gen(self, f, ctx, depth, scope, block) -> _Val:
        if isinstance(f, Truth):
            return self.const(f.value, False, depth)
        if isinstance(f, Atom):
            return self._atom(f, ctx, depth, block)
        if isinstance(f, Eq):
            return self._eq(f, ctx, depth, block)
        array = self._is_array(f, ctx)
        if isinstance(f, Not):  # ~Z is all-true: it skips nothing
            if _SKIPS in ctx:
                ctx = _marked(ctx, False)
            return self.negate(self.gen(f.sub, ctx, depth, scope, block),
                               depth, block)
        if isinstance(f, (And, Or)):
            return self._junction(f, isinstance(f, And), array, ctx, depth,
                                  scope, block)
        if isinstance(f, Xor):
            return self._xor(f, array, ctx, depth, scope, block)
        return self._quantifier(f, array, ctx, depth, scope, block)

    def _term(self, t, ctx):
        """('lit', int) | ('param', local) | ('axis', position)"""
        if isinstance(t, Const):
            return ("lit", t.value)
        kind, where = ctx[t.name]
        if kind == "param":
            return ("param", self._param(where))
        if kind == "same":  # bound by an equality to a resolved term
            return where
        return (kind, where)

    def _equalities(self, f: Formula, ctx) -> list[tuple[str, tuple]]:
        """Equalities `x = t` that hold wherever the conjunction f does,
        x bound to an axis and t to no axis: (x, t resolved)."""
        if isinstance(f, And):
            return self._equalities(f.left, ctx) + self._equalities(f.right, ctx)
        if not isinstance(f, Eq):
            return []
        for a, b in ((f.left, f.right), (f.right, f.left)):
            if isinstance(a, Var) and ctx[a.name][0] == "axis":
                other = self._term(b, ctx)
                if other[0] != "axis":
                    return [(a.name, other)]
        return []

    def _implied(self, f: Formula, ctx) -> list[tuple[str, tuple]]:
        """The equalities of f not already known false here."""
        ne = ctx.get(_NE, ())
        return [(x, t) for x, t in self._equalities(f, ctx)
                if (ctx[x][1], t) not in ne]

    def _split(self, f: Formula, name: str, term: tuple, ctx, depth: int,
               scope: tuple, block: _Block) -> _Val | None:
        """f where x != t, overwritten where x = t by f with x bound to t:
        the slice is computed with one axis less, and its statements run
        only where t is in range.  A split whose base is a relation's own
        array, outside every other split, starts a chain (`_write_cells`):
        its slice, lowered without x's axis, splits again on an axis still
        free there, as long as the base stays that relation's array on the
        cells the chain binds.  None when such a split does not (its base
        is then lowered for nothing, and its statements dropped).  Any
        other split's base is a dense array, and the slice is written into
        it with one store."""
        axis = ctx[name][1]
        kind, at = term
        outer = ctx.get(_AT)
        off_ctx = dict(ctx)
        off_ctx[_NE] = ctx.get(_NE, frozenset()) | {(axis, term)}
        trial = block
        if outer is not None:
            off_ctx[_NO_SPLIT] = (None, None)
            # lowered apart, and kept only when the chain goes on
            trial = _Block(parent=block, level=block.level)
        off = self.gen(f, off_ctx, depth, scope + ((_NE, axis, term),), trial)
        if outer is not None:
            if off.whole != outer.rel:
                return None
            block.stmts += trial.stmts
            block.memo.update(trial.memo)
        if kind == "lit" and at < 0:  # x = t holds nowhere
            return off
        if kind == "lit":
            guard = f"{at} < n"
        else:
            guard = f"k{at[1:]}"
        held = ctx.get(_HELD, frozenset())
        on_ctx = dict(ctx)
        on_ctx[name] = ("same", term)
        on_ctx[_HELD] = held | {guard}
        cells = None
        if outer is not None or off.whole and _NE not in ctx:
            # a chain: the slice is lowered in its compact shape, its axes
            # numbered among the axes still free
            free = outer.axes if outer else tuple(range(depth))
            on_ctx = _without_axis(on_ctx, axis)
            cells = on_ctx[_AT] = _Cells(
                off.whole, (outer.cells if outer else ()) + ((free[axis], term),),
                outer.temp if outer else self._temp(),
                free[:axis] + free[axis + 1:], self._temp())
            self.kept.add(cells.read)
        else:
            on_ctx[_NO_SPLIT] = (None, None)
        branch = block.child()
        on = self.gen(f, on_ctx, depth - (cells is not None),
                      scope + ((name, term),), branch)
        if guard in held:  # an enclosing branch tested it
            guard = None
        if cells is not None:
            return self._write_cells(on, off, cells, outer is None, guard,
                                     branch, block)
        if off.const is not None and on.const == off.const:
            return off
        index = ", ".join([":"] * axis + [f"{at}:{at} + 1"])
        # length n on the axes a name is bound to, 1 on those bound away
        live = {b[1] for b in ctx.values()
                if b.__class__ is tuple and b[0] == "axis"}
        shape = "(" + "".join("n, " if a in live else "1, "
                              for a in range(depth)) + ")"
        read = set(_TEMP.findall(on.code)).union(*map(_reads, branch.stmts))
        # the base, always a dense array: a copy of the relation's own
        # array for a whole atom of it (`_copy` densifies a SliceArray);
        # an array the kernel made and nothing else reads, which _take
        # hands on unless it is a view, a constant or too small (so nested
        # splits make one full-shape copy in all); otherwise a copy.  (A
        # chain's value, which may be its relation's array, is only ever
        # a rule's root.)
        owned = not off.whole and off.const is None and \
            self._owned(off, read, block)
        t = self._temp(off.code if owned else "")
        block.stmts.append(("assign", t, f"{'_take' if owned else '_copy'}"
                            f"({off.whole or off.code}, {shape})"))
        value = self.named(on, branch).code
        write = ("store", f"{t}[{index}]", value)
        _guarded(block, guard, branch.stmts + [write], None)
        return _Val(t, True)

    def _write_cells(self, on: _Val, off: _Val, at: _Cells, first: bool,
                     guard: str | None, branch: _Block, block: _Block) -> _Val:
        """The value of a split in a chain, `at.temp`: the relation array
        `at.rel` itself, unless `on` differs from its cells that `at.cells`
        bind.  Only the innermost split computes them, in their compact
        shape, and compares them with rel's cells, read once into
        `at.read` (a read nothing uses is dropped); then one copy is made
        and they are written: one slice of a SliceArray when axis 0 is
        bound, a dense copy of the whole array otherwise."""
        t, rel = at.temp, at.rel
        read = ("assign", at.read, f"{rel}[{at.index()}]")
        if on.whole == rel:  # the relation's own cells: nothing to write
            if first:
                return off
            stmts = []
        elif on.chain:  # an inner split of the chain writes
            stmts = [read] + branch.stmts if branch.stmts else []
        else:
            value = self.named(on, branch).code
            stmts = [read] + branch.stmts + self._compare_write(value, at)
        if first:
            block.stmts.append(("assign", t, rel))
        if stmts:
            _guarded(block, guard, stmts, t)
        return _Val(t, True, chain=rel)

    @staticmethod
    def _compare_write(value: str, at: _Cells) -> list:
        """The statements that assign `at.temp` a copy of `at.rel` with
        `value` written at the cells the chain binds, when it differs from
        them (`at.read`)."""
        t, rel, cells = at.temp, at.rel, at.read
        depth = len(at.axes) + len(at.cells)
        bound = dict(at.cells)
        test = f"{cells} != {value}" if not at.axes else \
            f"_differs({cells}, {value})"
        write = [("assign", t, f"_copy({rel}, {_shape(depth)})"),
                 ("store", f"{t}[{at.index()}]", value)]
        # a SliceArray has ndim >= 2; with axis 0 bound it copies one slice
        if depth >= 2 and 0 in bound:
            # the bound cells' index in that slice
            part = "(" + "".join(f"{bound[a][1]}, " if a in bound else
                                 "slice(None), " for a in range(1, depth)) + ")"
            if len(bound) == 1:  # the whole slice
                part = "()"
            write = [("if", f"{rel}.__class__ is SliceArray", [(
                "assign", t, f"{rel}.written({bound[0][1]}, {part}, {value})")],
                write, t)]
        return [("if", test, write, [], t)]

    def _atom(self, f: Atom, ctx, depth: int, block: _Block) -> _Val:
        terms = [self._term(t, ctx) for t in f.terms]
        array = any(kind == "axis" for kind, _ in terms)
        if any(kind == "lit" and value < 0 for kind, value in terms):
            return self.const(False, array, depth)
        guards = []
        for kind, value in terms:
            if kind == "lit":
                guards.append(f"{value} < n")
            elif kind == "param":
                guards.append(f"k{value[1:]}")
        guards = list(dict.fromkeys(guards))
        r = self._rel(f.rel)
        index = [str(v) for k, v in terms if k != "axis"]
        axes = [v for k, v in terms if k == "axis"]
        distinct = sorted(set(axes))
        # the atom's value over its own axes, in axis order (`view`),
        # and the read of it in the node's broadcast shape (`code`)
        sub = ", ".join(":" if k == "axis" else str(v) for k, v in terms)
        view = code = f"{r}[{sub or '()'}]"
        if axes == distinct:  # one index: constants, slices and None
            if axes:
                code = f"{r}[{', '.join(_interleave(terms, depth))}]"
        else:
            if len(distinct) < len(axes):  # a repeated variable: the diagonal
                spec = "".join(chr(ord("a") + distinct.index(a)) for a in axes) \
                    + "->" + "".join(chr(ord("a") + i)
                                     for i in range(len(distinct)))
                view = f"_diag({view}, {spec!r})"
            else:
                perm = sorted(range(len(axes)), key=axes.__getitem__)
                view = f"{view if index else r}.transpose(" \
                    f"{', '.join(map(str, perm))})"
            code = view if len(distinct) == depth else \
                f"{view}[{_pattern(distinct, depth)}]"
        at = ctx.get(_AT)
        # the whole atom in axis order (in a chain's slice, on its bound
        # cells and outside every quantifier, which adds an axis)
        if (tuple(terms) == at.view and depth == len(at.axes)) if at else \
                tuple(terms) == _axes(depth):
            if at and r == at.rel:  # the cells the chain binds, read once
                return _Val(at.read, array, whole=r)
            if at or _SKIPS not in ctx:
                return _Val(code, array, whole=r)
            # the all-false constant when the relation holds no true cell
            zero = _constant(False, depth)
            v = self.val(f"({code} if _any({r}) else {zero})", True, block,
                         {False})
            return replace(v, whole=r)
        held = ctx.get(_HELD, ())  # the tests an enclosing branch holds
        tests = [g for g in guards if g not in held]
        if array and index and len(distinct) < depth:
            return self._view(view, distinct, tests, depth, block)
        zero = _constant(False, depth) if array else "False"
        if tests:
            code = f"({code} if {' and '.join(tests)} else {zero})"
        if array:
            return self.val(code, True, block)
        # true only where every range test holds
        return self.val(code, False, block,
                        implies=(frozenset(guards), frozenset()))

    def _view(self, view: str, distinct: list, tests: list, depth: int,
              block: _Block) -> _Val:
        """An atom read through a parameter or constant whose view
        broadcasts to more axes: `E(y2, w)` over four axes reads E's
        column w as `c[None, :, None, None]`.  The view, its axes in
        axis order, is read and counted at most once per call, however
        many sibling branches need it: a local c<i>, None until the first
        site that runs reads it, holds it for the rest of the call.  It
        is False when it is all-false or a range test fails; every
        position of it is then the all-false constant, which prunes what
        is built on it."""
        key = ("view", view)
        c = block.lookup(key)
        if c is None:
            name = self.once.setdefault(key, f"c{len(self.once)}")
            read = f"({view} if {' and '.join(tests)} else False)" \
                if tests else view
            block.stmts.append(("if", f"{name} is None", [
                ("assign", name, read),
                ("assign", name, f"{name} if _count({name}) else False")],
                [], name))
            c = block.memo[key] = _Val(name, True)
        zero = _constant(False, depth)
        return self.val(f"({zero} if {c.code} is False else "
                        f"{c.code}[{_pattern(distinct, depth)}])", True, block,
                        {False})

    def _eq(self, f: Eq, ctx, depth: int, block: _Block) -> _Val:
        left, right = self._term(f.left, ctx), self._term(f.right, ctx)
        if left[0] != "axis" and right[0] != "axis":
            if left[0] == right[0] == "lit" or left == right:
                return self.const(left[1] == right[1], False, depth)
            return self.val(f"({left[1]} == {right[1]})", False, block)
        if left[0] == "axis" and right[0] == "axis":
            if left[1] == right[1]:
                return self.const(True, True, depth)
            axes = sorted((left[1], right[1]))
            return self.val(f"eye[{_pattern(axes, depth)}]", True, block)
        (_, axis), (kind, c) = (left, right) if left[0] == "axis" else (right, left)
        if (axis, (kind, c)) in ctx.get(_NE, ()):
            return self.const(False, True, depth)
        if kind == "lit" and c < 0:
            return self.const(False, True, depth)
        # row c of the identity, a view; all-false where c is out of range
        # (eye[-1] would read the last row)
        code = f"eye[{c}]" if depth == 1 else \
            f"eye[{c}, {_pattern([axis], depth)}]"
        test = f"{c} < n" if kind == "lit" else f"k{c[1:]}"
        if test not in ctx.get(_HELD, ()):
            code = f"({code} if {test} else {_constant(False, depth)})"
        return self.val(code, True, block)

    def negate(self, v: _Val, depth: int, block: _Block) -> _Val:
        if v.const is not None:
            return self.const(not v.const, v.array, depth)
        if not v.array:
            return self.val(f"(not {v.code})", False, block, nest=v.nest + 1,
                            implies=v.implies[::-1])
        return self.val(_not_code(v, depth), True, block,
                        {not c for c in v.may}, v.nest + 1,
                        neg="" if v.may else v.code)

    def _junction(self, f, is_and: bool, array: bool, ctx, depth, scope,
                  block) -> _Val:
        absorb, ident = not is_and, is_and
        first, second = f.left, f.right
        if self._is_array(first, ctx) and not self._is_array(second, ctx):
            first, second = second, first
        # a split copies the formula, so only the rule's own disjunction
        # is split, and a slice is split again only in a chain; a disjunct
        # with an equality known false here is false here, and a split on
        # its other equalities would only write the base's own values back
        if not is_and and array and f is self.f and _NO_SPLIT not in ctx:
            ne = ctx.get(_NE, ())
            for d in _disjuncts(f):
                eqs = self._equalities(d, ctx)
                if eqs and all((ctx[x][1], t) not in ne for x, t in eqs):
                    v = self._split(f, *eqs[0], ctx, depth, scope, block)
                    if v is not None:
                        return v
        # where `first` holds and implies x = t, `second` is lowered with
        # x bound to t: one axis less to compute
        implied = self._implied(first, ctx) if is_and else []
        if is_and and not implied and self._is_array(first, ctx):
            implied = self._implied(second, ctx)
            if implied:
                first, second = second, first
        first, second, x_ctx, ctx = self._order(first, second, is_and,
                                                not implied, ctx, depth, scope)
        x = self.gen(first, x_ctx, depth, scope, block)
        if implied:
            ctx = dict(ctx)
            for name, term in implied:
                ctx[name] = ("same", term)
            scope = scope + tuple(implied)
        if x.const == absorb:
            return self.const(absorb, array, depth)
        if x.const == ident:
            return self.coerce(self.gen(second, ctx, depth, scope, block),
                               array, depth, block)
        # the second operand is only evaluated when the first does not decide
        decides = (not x.array) or absorb in x.may
        branch = block.child() if decides and block.level < _MAX_LEVEL else block
        if not x.array and branch is not block:
            # y runs only where x did not decide: the range tests that
            # implies hold there
            held = ctx.get(_HELD, frozenset())
            more = x.implies[0 if is_and else 1] - held
            if more:
                ctx = {**ctx, _HELD: held | more}
        y = self.gen(second, ctx, depth, scope, branch)
        if y.const == absorb:
            return self.const(absorb, array, depth)
        if y.const == ident:
            return self.coerce(x, array, depth, block)
        if not x.array:
            # decided: x is the absorbing value; otherwise the result is y
            test = x.code if is_and else f"(not {x.code})"
            (xt, xf), (yt, yf) = x.implies, y.implies
            return self._select(test, branch, y.code,
                                self.const(absorb, y.array, depth), y.array,
                                y.may | ({absorb} if y.array else set()),
                                max(x.nest, y.nest) + 1, block,
                                (xt | yt, xf & yf) if is_and else
                                (xt & yt, xf | yf))
        # both arrays; x may still be the identity constant, y either one
        if ident in y.may:
            x = self.shared(x, block)
        if ident in x.may:
            y = self.shared(y, branch)
        # x & ~Y is x > Y and x | ~Y is x >= Y: one call, not two
        op = "&" if is_and else "|"
        code = f"({x.code} {op} {y.code})"
        for a, b in ((x, y), (y, x)):
            if b.neg:
                code = f"({a.code} {'>' if is_and else '>='} {b.neg})"
                break
        may: set = set()
        for c in y.may:
            code = f"({_constant(absorb, depth) if c == absorb else x.code} " \
                f"if {y.code} is {_constant(c, depth)} else {code})"
            may |= {absorb} if c == absorb else set()
        if ident in x.may:
            code = f"({y.code} if {x.code} is {_constant(ident, depth)} else {code})"
            may |= y.may
        if absorb in x.may:
            return self._select(f"({x.code} is not {_constant(absorb, depth)})",
                                branch, code, self.const(absorb, True, depth),
                                True, may | {absorb}, max(x.nest, y.nest) + 1,
                                block)
        return self.val(code, True, block, may, max(x.nest, y.nest) + 1)

    def _order(self, first, second, is_and: bool, swap: bool, ctx, depth,
               scope) -> tuple:
        """An And's or Or's operands in the order to lower them, and the
        context of each: with the mark _SKIPS, under which a whole read
        is counted (`_atom`), where its all-false value skips a
        computation.  An And's operand is so marked when the other one is
        a full computation (`_full`) or the And is marked; an Or's (and
        an Xor's) when the node is marked and both may be all-false.  An
        And with `swap` lowers first an operand that may be all-false
        when the other, a full computation, may not: the other is then
        computed only where the first is not all-false.  An array of one
        axis is marked nowhere: the count costs what it skips."""
        if depth < 2:
            return first, second, ctx, ctx
        marked = _SKIPS in ctx
        if not is_and:
            if marked and not (self._falsy(first, ctx, depth, scope)
                               and self._falsy(second, ctx, depth, scope)):
                ctx = _marked(ctx, False)
            return first, second, ctx, ctx
        if swap and self._full(first, ctx, depth) \
                and self._falsy(second, ctx, depth, scope) \
                and not self._falsy(first, ctx, depth, scope):
            first, second = second, first
        if marked:
            return first, second, ctx, ctx
        return (first, second, _marked(ctx, self._full(second, ctx, depth)),
                _marked(ctx, self._full(first, ctx, depth)))

    def _full(self, f: Formula, ctx, depth: int) -> bool:
        """Whether f is an operation over every axis here: a computation
        of n**depth cells, not an atom or equality read as a view."""
        fv = self.fv[id(f)]
        if len(fv) < depth or f.__class__ in (Atom, Eq, Truth):
            return False
        return depth == len({ctx[v][1] for v in fv if ctx[v][0] == "axis"})

    def _falsy(self, f: Formula, ctx, depth: int, scope: tuple) -> bool:
        """Whether f, an array lowered with the mark _SKIPS, may be the
        all-false constant at run time: a parameter view (`_view`), a
        whole read of ndim >= 2 outside a chain, and an And of one, or an
        Or, Xor or quantifier of such operands.  Memoised by structural
        id and scope, as `gen` is."""
        key = (self.cid[id(f)], scope)
        out = self.falsy.get(key)
        if out is not None:
            return out
        if isinstance(f, Truth):  # all-false or all-true, known now
            out = not f.value
        elif not self._is_array(f, ctx):
            out = False
        elif isinstance(f, Atom):
            terms = [("lit", t.value) if isinstance(t, Const) else
                     ctx[t.name] for t in f.terms]
            terms = [b[1] if b[0] == "same" else b for b in terms]
            axes = [v for k, v in terms if k == "axis"]
            if any(k == "lit" and v < 0 for k, v in terms):
                out = False  # a constant
            elif len(axes) < len(terms):  # a view when it broadcasts
                out = len(set(axes)) < depth
            else:
                out = _AT not in ctx and axes == list(range(depth))
        elif isinstance(f, And):
            out = self._falsy(f.left, ctx, depth, scope) \
                or self._falsy(f.right, ctx, depth, scope)
        elif isinstance(f, (Or, Xor)):
            out = self._falsy(f.left, ctx, depth, scope) \
                and self._falsy(f.right, ctx, depth, scope)
        elif isinstance(f, (Exists, Forall)):
            out = self._falsy(f.body, {**ctx, f.var: ("axis", depth)},
                              depth + 1, scope + (f.var,))
        else:  # an equality or a negation
            out = False
        self.falsy[key] = out
        return out

    def _select(self, test: str, branch: _Block, code: str, otherwise: _Val,
                array: bool, may, nest: int, block: _Block,
                implies: tuple = (frozenset(), frozenset())) -> _Val:
        """`code` when `test` holds, else `otherwise`.  Statements that
        `code` needs go into an if-statement, so they run only then."""
        if branch is block or not branch.stmts:
            return self.val(f"({code} if {test} else {otherwise.code})", array,
                            block, may, nest, implies=implies)
        t = self._temp(f"{code} {otherwise.code}")
        block.stmts.append(("if", test, branch.stmts + [("assign", t, code)],
                            [("assign", t, otherwise.code)], t))
        return _Val(t, array, None, frozenset(may), implies=implies)

    def _xor(self, f, array: bool, ctx, depth, scope, block) -> _Val:
        first, second = f.left, f.right
        if self._is_array(first, ctx) and not self._is_array(second, ctx):
            first, second = second, first
        # marked as an Or's operands are
        first, second, ctx, _ = self._order(first, second, False, False, ctx,
                                            depth, scope)
        x = self.gen(first, ctx, depth, scope, block)
        y = self.gen(second, ctx, depth, scope, block)
        for a, b in ((x, y), (y, x)):
            if a.const is not None:
                b = self.coerce(b, array, depth, block)
                return self.negate(b, depth, block) if a.const else b
        nest = max(x.nest, y.nest) + 1
        if not x.array:
            if not y.array:
                return self.val(f"({x.code} != {y.code})", False, block, nest=nest)
            y = self.named(y, block)
            return self.val(f"({_not_code(y, depth)} if {x.code} else {y.code})",
                            True, block, y.may | {not c for c in y.may}, nest)
        if y.may:
            x = self.shared(x, block)
        if x.may:
            y = self.shared(y, block)
        code = f"({x.code} ^ {y.code})"
        for a, b in ((x, y), (y, x)):
            if b.neg:  # x ^ ~Y is x == Y
                code = f"({a.code} == {b.neg})"
                break
        may: set = set()
        for a, b in ((y, x), (x, y)):
            for c in a.may:
                other = b.code if not c else f"(~{b.code})"
                code = f"({other} if {a.code} is {_constant(c, depth)} else {code})"
                if not c:
                    may |= b.may
        return self.val(code, True, block, may, nest)

    def _quantifier(self, f, array: bool, ctx, depth, scope, block) -> _Val:
        exists = isinstance(f, Exists)
        inner = dict(ctx)
        inner[f.var] = ("axis", depth)
        body = self.gen(f.body, inner, depth + 1, scope + (f.var,), block)
        if not array:
            # the domain may be empty: exists is then false, forall true
            nonempty = "n > 0" if exists else "n == 0"
            if body.const is not None:
                if body.const != exists:
                    return self.const(body.const, False, depth)
                return self.val(f"({nonempty})", False, block)
            reduce = body.code
            if body.array:
                reduce += f".{'any' if exists else 'all'}()"
            return self.val(f"({nonempty} {'and' if exists else 'or'} {reduce})",
                            False, block, nest=body.nest + 1)
        # an array result has an axis of length n, so n > 0 or it is empty
        if body.const is not None:
            return self.const(body.const, True, depth)
        code = f"{body.code}.{'any' if exists else 'all'}(axis=-1)"
        for c in body.may:
            code = f"({_constant(c, depth)} if {body.code} is " \
                f"{_constant(c, depth + 1)} else {code})"
        return self.val(code, True, block, body.may, body.nest + 1)


def _function(source: str, names: tuple) -> Kernel:
    """The kernel of a source, its code compiled once per source."""
    digest = hashlib.sha256(source.encode()).digest()
    code = _codes.get(digest)
    if code is None:
        module = compile(source, "<bulk_eval kernel>", "exec")
        code = next(c for c in module.co_consts
                    if isinstance(c, types.CodeType))
        _codes[digest] = code
        if len(_codes) > CACHE_SIZE:
            _codes.popitem(last=False)
    _codes.move_to_end(digest)
    return types.FunctionType(code, _NAMESPACE, "kernel", names)


def _marked(ctx: dict, skips: bool) -> dict:
    """ctx with the mark _SKIPS when `skips`, else without it."""
    if (_SKIPS in ctx) == skips:
        return ctx
    if skips:
        return {**ctx, _SKIPS: (None, None)}
    return {k: b for k, b in ctx.items() if k != _SKIPS}


def _guarded(block: _Block, guard: str | None, stmts: list, temp) -> None:
    """Append stmts to block under `if guard:` (the branch assigns `temp`
    for block), or as they are when an enclosing branch holds the test
    (guard None)."""
    if guard is None:
        block.stmts += stmts
    else:
        block.stmts.append(("if", guard, stmts, [], temp))


def _axes(depth: int) -> tuple:
    return tuple(("axis", a) for a in range(depth))


def _without_axis(ctx: dict, axis: int) -> dict:
    """ctx with `axis` bound away: every higher axis numbered one less."""
    out = {}
    for key, b in ctx.items():
        if key == _NE:
            b = frozenset((a - (a > axis), t) for a, t in b if a != axis)
        elif b.__class__ is tuple and b[0] == "axis" and b[1] > axis:
            b = ("axis", b[1] - 1)
        out[key] = b
    return out


def _disjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    return [f]


def _shape(depth: int) -> str:
    return "(" + "n, " * depth + ")"


def _not_code(v: _Val, depth: int) -> str:
    code = f"(~{v.code})"
    for c in v.may:
        code = f"({_constant(not c, depth)} if {v.code} is " \
            f"{_constant(c, depth)} else {code})"
    return code


def _pattern(axes: list[int], depth: int) -> str:
    """Index placing sorted axes in a depth-dim broadcast shape."""
    return ", ".join(":" if a in axes else "None" for a in range(depth))


def _interleave(terms, depth: int) -> list[str]:
    """One basic index for an atom whose variables come in axis order:
    constants in place, a slice per variable, None per absent axis."""
    out, last = [], -1
    for kind, value in terms:
        if kind != "axis":
            out.append(str(value))
            continue
        out += ["None"] * (value - last - 1) + [":"]
        last = value
    return out + ["None"] * (depth - last - 1)


# ---------------------------------------------------------------- source

def _reads(stmt) -> set[str]:
    """The temporaries a statement reads; an if-statement that assigns a
    temporary for its block does not count its own."""
    if stmt[0] == "del":
        return set()
    if stmt[0] == "assign":
        return set(_TEMP.findall(stmt[2]))
    if stmt[0] == "store":
        return set(_TEMP.findall(stmt[1] + " " + stmt[2]))
    if stmt[0] == "return":
        return set(_TEMP.findall(stmt[1]))
    out = set(_TEMP.findall(stmt[1]))
    for s in stmt[2] + stmt[3]:
        out |= _reads(s)
    return out - {stmt[4]}


def _defines(stmt) -> str | None:
    """The temporary a statement assigns for its block, if any."""
    if stmt[0] == "assign":
        return stmt[1]
    return stmt[4] if stmt[0] == "if" else None


def _insert_dels(stmts: list, outer: tuple) -> set[str]:
    """Drop every statement that only assigns a temporary nothing reads,
    then delete every other temporary defined in this block after the
    last statement of the block that reads it; `outer` are the
    temporaries this block assigns for an enclosing block.  Statements
    compute values and write only temporaries, so a dropped one changes
    nothing.  Returns the temporaries the block reads (as `_reads` counts
    them), so that each block is read once."""
    reads = []
    for s in stmts:
        if s[0] == "if":
            inner = _insert_dels(s[2], (s[4],)) | _insert_dels(s[3], (s[4],))
            reads.append((set(_TEMP.findall(s[1])) | inner) - {s[4]})
        else:
            reads.append(_reads(s))
    while True:
        live = {None, *outer}.union(*reads)
        kept = [i for i, s in enumerate(stmts) if _defines(s) in live]
        if len(kept) == len(stmts):
            break
        stmts[:] = [stmts[i] for i in kept]
        reads = [reads[i] for i in kept]
    last: dict[str, int] = {}
    for i, r in enumerate(reads):
        for t in r:
            last[t] = i
    after: dict[int, list[str]] = {}
    for t in dict.fromkeys(map(_defines, stmts)):  # a chain's, defined twice
        # a parameter view read once (c<i>) lives for the whole call: a
        # sibling branch may read it
        if t is None or t in outer or t[0] == "c":
            continue
        i = last[t]
        if stmts[i][0] != "return":
            after.setdefault(i, []).append(t)
    for i in sorted(after, reverse=True):
        stmts.insert(i + 1, ("del", ", ".join(sorted(after[i]))))
    return set().union(*reads)


def _render(stmts: list, level: int, lines: list[str]) -> None:
    pad = "    " * level
    for s in stmts:
        if s[0] in ("assign", "store"):
            lines.append(f"{pad}{s[1]} = {s[2]}")
        elif s[0] == "del":
            lines.append(f"{pad}del {s[1]}")
        elif s[0] == "return":
            lines.append(f"{pad}{s[1]}")
        else:
            lines.append(f"{pad}if {s[1]}:")
            _render(s[2], level + 1, lines)
            if s[3]:
                lines.append(f"{pad}else:")
                _render(s[3], level + 1, lines)


def relation_to_array(tuples, arity: int, n: int) -> np.ndarray:
    arr = np.zeros((n,) * arity, dtype=bool)
    if arity == 0:
        if tuples:
            arr[()] = True
        return arr
    for t in tuples:
        arr[t] = True
    return arr


# The tuples of each array converted that never changes, by its id: a
# weak reference to it and its frozenset.  An entry goes with its array.
_relations: dict[int, tuple[weakref.ref, frozenset]] = {}


def _forget_relation(ref: weakref.ref, key: int) -> None:
    if _relations.get(key, (None,))[0] is ref:
        del _relations[key]


def array_to_relation(arr) -> frozenset[tuple[int, ...]]:
    """The tuples of a boolean array.  An array whose cells cannot change
    while it stays the same object is converted once while it lives, and
    later calls return the same frozenset: a SliceArray, or a read-only
    numpy array that owns its memory.  Any other array is converted
    afresh on each call: a writable one may be written in place, and a
    read-only view changes when its base, which may be writable, is."""
    key = id(arr)
    hit = _relations.get(key)
    if hit is not None and hit[0]() is arr:
        return hit[1]
    out = _tuples(arr)
    if arr.__class__ is SliceArray or arr.__class__ is np.ndarray and \
            not arr.flags.writeable and arr.base is None:
        _relations[key] = (weakref.ref(arr, functools.partial(
            _forget_relation, key=key)), out)
    return out


def _tuples(arr) -> frozenset[tuple[int, ...]]:
    if arr.__class__ is SliceArray:  # part by part, never densified
        shape, out, empty = arr.shape[1:], [], set()
        for i, part in enumerate(arr.parts):
            if id(part) in empty:  # a part seen empty, mostly the shared zero
                continue
            flat = np.flatnonzero(part)
            if not flat.size:
                empty.add(id(part))
                continue
            out += zip(itertools.repeat(i, flat.size),
                       *(c.tolist() for c in np.unravel_index(flat, shape)))
        return frozenset(out)
    if arr.ndim == 0:
        return frozenset([()]) if bool(arr) else frozenset()
    return frozenset(map(tuple, np.argwhere(arr).tolist()))
