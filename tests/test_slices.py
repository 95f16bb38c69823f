"""bulk_eval's SliceArray against the dense numpy array it stands for,
the lowering's use of named temporaries, and the shape of the catalog's
kernels."""

import ast
import gc
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from dyncomplab import bulk_eval as be
from dyncomplab import constructions as cx
from dyncomplab import interpreter
from dyncomplab import programs as pg
from dyncomplab.bulk_eval import (SliceArray, _Lowering, _diag,
                                  array_to_relation, stored, stored_relation)
from dyncomplab.formulas import parse_formula
from dyncomplab.interpreter import init_state, step
from dyncomplab.structures import Change


@pytest.fixture
def every_array_sliced(monkeypatch):
    """Keep every array of ndim >= 2 as slices, whatever its size."""
    monkeypatch.setattr(be, "_SHARE_MIN", 0)


def _random_pair(rng, ndim, n):
    """A random dense array and its SliceArray, built as a state builds
    one: every all-false slice is the one shared zero part."""
    dense = np.zeros((n,) * ndim, dtype=bool)
    for i in range(n):
        if rng.random() < 0.7:
            dense[i] = np.array([rng.random() < 0.4 for _ in range(n ** (ndim - 1))]
                                ).reshape((n,) * (ndim - 1))
    sliced = stored_relation(array_to_relation(dense), ndim, n)
    dense.setflags(False)
    return dense, sliced


def _random_index(rng, ndim, n):
    """An index of the kinds atoms use: an int or `:` per axis, the first
    an int, with `None` inserted for broadcast axes."""
    index = [rng.randrange(n)]
    for _ in range(ndim - 1):
        index.append(rng.randrange(n) if rng.random() < 0.4 else slice(None))
    for _ in range(rng.randrange(3)):
        index.insert(rng.randrange(1, len(index) + 1), None)
    return tuple(index)


def _same(got, want):
    got = np.asarray(got)
    assert got.shape == want.shape and got.dtype == bool
    assert np.array_equal(got, want)


CASES = [(ndim, n) for ndim in (2, 3, 4) for n in range(5)]


@pytest.mark.parametrize("ndim,n", CASES)
def test_a_slice_array_reads_as_its_dense_array(ndim, n, every_array_sliced):
    rng = random.Random(f"read:{ndim}:{n}")
    for _ in range(20):
        dense, sliced = _random_pair(rng, ndim, n)
        assert isinstance(sliced, SliceArray)
        assert (sliced.shape, sliced.ndim, sliced.size) == \
            (dense.shape, dense.ndim, dense.size)
        assert not sliced.flags.writeable
        if n:
            zero = [p for p in sliced.parts if not p.any()]
            assert all(p is zero[0] for p in zero)   # one shared zero part
        _same(np.asarray(sliced), dense)
        _same(sliced.copy(), dense)
        _same(sliced[(slice(None),) * ndim], dense)      # the whole atom
        perm = list(range(ndim))
        rng.shuffle(perm)
        _same(sliced.transpose(*perm), dense.transpose(*perm))
        assert array_to_relation(sliced) == array_to_relation(dense)
        with pytest.raises(ValueError, match="read-only"):
            sliced[(0,) * ndim] = True
        if not n:
            continue
        for _ in range(10):
            index = _random_index(rng, ndim, n)
            _same(sliced[index], dense[index])
            p = rng.randrange(n)
            _same(sliced[p], dense[p])
            _same(sliced.transpose(*perm)[index], dense.transpose(*perm)[index])
        # the input of _diag: a repeated variable, with a parameter first
        # or not
        spec = "a" * (ndim - 1) + "->a"
        _same(_diag(sliced[p], spec), _diag(dense[p], spec))
        spec = "a" * ndim + "->a"
        _same(_diag(sliced[(slice(None),) * ndim], spec), _diag(dense, spec))


@pytest.mark.parametrize("ndim,n", CASES)
def test_cow_on_a_slice_array_matches_a_dense_write(ndim, n,
                                                    every_array_sliced):
    """A kernel's slice write, `!(v = p) & T(..) | v = p & V(..)`, on
    axis 0 is a chain's `SliceArray.written`: one new part, the others
    shared, the array itself when the slice holds the value.  Its write
    on another axis goes into a dense copy of the relation's SliceArray.
    Neither writes to the array it starts from."""
    rng = random.Random(f"cow:{ndim}:{n}")
    frees = tuple("abcd"[:ndim])
    for _ in range(20 if n else 1):
        dense, sliced = _random_pair(rng, ndim, n)
        other_dense, other = _random_pair(rng, ndim, n)
        as_dense = {id(sliced): dense, id(other): other_dense,
                    id(dense): dense, id(other_dense): other_dense}
        for a, b in ((sliced, other), (sliced, other_dense),
                     (dense, other), (sliced, sliced)):
            _same(a != b, as_dense[id(a)] != as_dense[id(b)])
            _same(a == b, as_dense[id(a)] == as_dense[id(b)])
        if not n:
            continue
        axis, at = rng.randrange(ndim), rng.randrange(n)
        index = (slice(None),) * axis + (slice(at, at + 1),)
        # the new slice is V's, read by the kernel as V(.., p, ..)
        values = [other_dense, dense]
        if axis == 0:  # V's slice a bool, T's own slice or a broadcast
            shape = [1] + [1 if rng.random() < 0.3 else n
                           for _ in range(ndim - 1)]
            for cells in (rng.random() < 0.5, dense[index].copy(),
                          np.array([rng.random() < 0.5 for _ in
                                    range(int(np.prod(shape)))]
                                   ).reshape(shape)):
                value = other_dense.copy()
                value[index] = cells
                values.append(value)
        v = frees[axis]
        rule = parse_formula(f"!({v} = p) & T({', '.join(frees)}) | "
                             f"{v} = p & V({', '.join(frees)})")
        for value in values:
            want = dense.copy()
            want[index] = value[index]
            got = be.bulk_eval(rule, {"T": sliced,
                                      "V": stored(value, value.shape)},
                               n, {"p": at}, frees)
            _same(got, want)
            _same(sliced, dense)                     # left unwritten
            if axis == 0 and np.array_equal(want, dense):
                assert got is sliced
            elif axis == 0:
                assert isinstance(got, SliceArray)
                assert all(got.parts[i] is sliced.parts[i]
                           for i in range(n) if i != at)
                assert not got.parts[at].flags.writeable
            _same(got != sliced, want != dense)


@pytest.mark.parametrize("ndim,n", [(ndim, n) for ndim in (2, 3, 4)
                                    for n in (1, 2, 4)])
def test_a_cell_write_copies_one_slice_and_shares_the_others(
        ndim, n, every_array_sliced):
    """`written` writes a point, a column or a whole slice into a copy of
    one slice, with the value's leading axis of length 1 or absent, and
    shares every other slice.  It never writes to the array it starts
    from."""
    rng = random.Random(f"written:{ndim}:{n}")
    for _ in range(10):
        dense, sliced = _random_pair(rng, ndim, n)
        for at in range(n):
            cells = [rng.choice([slice(None), rng.randrange(n)])
                     for _ in range(ndim - 1)]
            if rng.random() < 0.3:
                cells = [slice(None)] * (ndim - 1)
            index = tuple(c if c.__class__ is slice else slice(c, c + 1)
                          for c in cells)
            shape = dense[at][index].shape
            value = np.array([rng.random() < 0.5 for _ in
                              range(int(np.prod(shape)))]).reshape(shape)
            if rng.random() < 0.5:
                value = value[None]
            whole = all(c == slice(None) for c in index)
            got = sliced.written(at, () if whole else index, value)
            want = dense.copy()
            want[at][index] = value
            _same(got, want)
            _same(sliced, dense)
            assert [i for i in range(n)
                    if got.parts[i] is not sliced.parts[i]] == [at]
            assert not got.parts[at].flags.writeable


@pytest.mark.parametrize("ndim,n", CASES)
def test_an_index_with_axis_0_free_reads_the_dense_cells(
        ndim, n, every_array_sliced):
    """An index whose first entry is `:` reads the same cells of every
    slice, through a dense copy of the whole array."""
    rng = random.Random(f"rewritten:{ndim}:{n}")
    for _ in range(10 if n else 1):
        dense, sliced = _random_pair(rng, ndim, n)
        rest = tuple(rng.choice([slice(None), rng.randrange(n)]) if n
                     else slice(None) for _ in range(ndim - 1))
        index = (slice(None),) + rest
        _same(sliced[index], dense[index])
        _same(sliced[index + (None,)], dense[index + (None,)])


def test_a_branch_does_not_test_a_range_again():
    """Inside `if kN:`, which tests that parameter N is in range, no
    kernel of the catalog tests kN again: degree_rel_3's insert-E List_1
    reads `r1[p0, :, p1]` under `if k0:` / `if k1:`, not
    `(r1[...] if k0 and k1 else Z3)`.  Two splits on one parameter test
    it once, with no `if True:` for the inner one.  Nor does what runs
    only where a scalar test holds test the ranges that the test implies:
    prop_4's insert-E P_0_4 reads E's column w with no `k0` under
    `if (r0[p0] if k0 else False):`, and degree_rel_3's delete-E First_1
    reads `(r1[p0, p1, :] if t4 else Z1)`, t4 being
    `(r0[p0, p1] if k1 else False)`, not `((r1[...] if k1 else Z1) if
    t4 else Z1)`."""
    rule = pg.catalog_entry("degree_rel_3").build().rules[
        ("ins", "E", "List_1")]
    source = _Lowering(rule.body, rule.params, rule.frees).source()
    assert "if k1:" in source and "if k0 and k1 else" not in source, source
    rule = pg.catalog_entry("parity_exists_prop_4").build().rules[
        ("ins", "E", "P_0_4")]
    lines = _Lowering(rule.body, rule.params, rule.frees).source().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.strip() == "if (r0[p0] if k0 else False):")
    indent = len(lines[at]) - len(lines[at].lstrip())
    inside = list(itertools.takewhile(
        lambda line: len(line) - len(line.lstrip()) > indent, lines[at + 1:]))
    assert "r1[:, p0]" in "\n".join(inside), lines
    assert not any(re.search(r"\bk0\b", line) for line in inside), inside
    rule = pg.catalog_entry("degree_rel_3").build().rules[
        ("del", "E", "First_1")]
    source = _Lowering(rule.body, rule.params, rule.frees).source()
    assert "(r1[p0, p1, :] if t" in source and "if k1 else Z1" not in source, \
        source
    source = _Lowering(parse_formula("T(x, y, z) | x = w & y = w & E(z, w)"),
                       ("w",), ("x", "y", "z")).source()
    assert source.count("if k0:") == 1 and "if True" not in source, source
    assert "r1[p0, p0, :]" in source, source
    for entry in pg.catalog():
        for key, rule in entry.build().rules.items():
            source = _Lowering(rule.body, rule.params, rule.frees).source()
            assert "if True" not in source, (key, source)
            held = []   # (indent, test) of each enclosing `if kN:`
            for line in source.splitlines():
                indent = len(line) - len(line.lstrip())
                while held and held[-1][0] >= indent:
                    held.pop()
                for _, k in held:
                    assert not re.search(rf"\b{k}\b", line), \
                        (key, k, line, source)
                test = re.fullmatch(r" +if (k\d+):", line)
                if test:
                    held.append((indent, test[1]))
            _assert_scalar_tests_hold_their_range_tests(key, source)


def _range_tests(test: ast.expr, guarded: dict) -> set[str]:
    """The range tests kN that `test` being true implies: those of an atom
    `(r[...] if kN and ... else False)`, directly or through the temporary
    it was assigned to (`guarded`)."""
    if isinstance(test, ast.Name):
        return guarded.get(test.id, set())
    if isinstance(test, ast.IfExp) and isinstance(test.orelse, ast.Constant) \
            and test.orelse.value is False \
            and isinstance(test.body, ast.Subscript):
        names = test.test.values if isinstance(test.test, ast.BoolOp) \
            else [test.test]
        return {t.id for t in names
                if isinstance(t, ast.Name) and re.fullmatch(r"k\d+", t.id)}
    return set()


def _assert_scalar_tests_hold_their_range_tests(key, source: str) -> None:
    """What runs only where a scalar test holds reads no range test that
    the test implies: not in `if (r0[p0] if k0 else False):`, and not in
    `(r1[p0, p1, :] if t4 else Z1)` where t4 is `(r0[p0, p1] if k1 else
    False)`."""
    tree = ast.parse(source)
    guarded = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            tests = _range_tests(node.value, {})
            if tests:
                guarded[node.targets[0].id] = tests
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp)):
            inside = node.body if isinstance(node, ast.If) else [node.body]
            for k in _range_tests(node.test, guarded):
                for part in inside:
                    assert not any(isinstance(n, ast.Name) and n.id == k
                                   for n in ast.walk(part)), \
                        (key, k, ast.unparse(node), source)


def test_stored_keeps_small_arrays_and_slices_large_ones():
    small = np.zeros((3, 3), dtype=bool)
    assert stored(small, small.shape) is small and not small.flags.writeable
    n = 32                                            # 32**3 = _SHARE_MIN
    big = np.zeros((n, n, n), dtype=bool)
    big[1, 2, 3] = True
    got = stored(big, big.shape)
    assert isinstance(got, SliceArray)
    assert all(p.base is big for p in got.parts)      # views, no copy
    assert array_to_relation(got) == {(1, 2, 3)}
    empty = stored_relation((), 3, n)
    assert len({id(p) for p in empty.parts}) == 1
    unary = np.zeros(1 << 16, dtype=bool)
    assert stored(unary, unary.shape) is unary        # ndim 1 stays dense
    assert stored(got, got.shape) is got              # a SliceArray as it is
    view = big[:3, :3, 0]                             # not fresh: copied
    kept = stored(view, (3, 3))
    assert kept is not view and not kept.flags.writeable
    assert np.array_equal(kept, view)
    assert stored(True, (3, 3)) is be._full((3, 3), True)
    ones = stored(True, big.shape)                    # one constant part
    assert isinstance(ones, SliceArray) and ones.parts[0].all()
    assert len({id(p) for p in ones.parts}) == 1


def test_a_constant_value_is_one_shared_array_per_shape(monkeypatch):
    """`stored` of a bool, and `stored_relation` of no tuples, are one
    read-only object per (shape, value) at every size: the `_full` array
    when small, one SliceArray of `_full` parts when large (or when every
    array is kept as slices), so that a relation that stays constant is
    handed on as itself."""
    n = 32                                            # 32**3 = _SHARE_MIN
    for shape in ((n,) * 3, (3, 3), (n,)):
        for value in (False, True):
            got = stored(value, shape)
            assert stored(value, shape) is got and not got.flags.writeable
            assert array_to_relation(got) == (
                set(itertools.product(range(shape[0]), repeat=len(shape)))
                if value else set())
    assert stored_relation((), 3, n) is stored(False, (n,) * 3)
    assert isinstance(stored(False, (n,) * 3), SliceArray)
    assert stored(False, (n,) * 3) is not stored(True, (n,) * 3)
    assert stored_relation([], 2, 3) is be._full((3, 3), False)
    monkeypatch.setattr(be, "_SHARE_MIN", 0)
    for shape in ((0, 0), (1, 1), (4, 4, 4)):
        got = stored_relation((), len(shape), shape[0])
        assert isinstance(got, SliceArray) and got is stored(False, shape)


def _cells(dense):
    return {idx for idx in np.ndindex(dense.shape) if dense[idx]}


@pytest.mark.parametrize("ndim,n", [(ndim, n) for ndim in (2, 3, 4)
                                    for n in (1, 2, 5)])
def test_array_to_relation_on_slices_equals_the_dense_path(ndim, n,
                                                          every_array_sliced):
    """A SliceArray reads back, part by part, the tuples its dense array
    holds: all parts the shared zero part, one cell at the very last
    index, one shared non-zero part, and random parts."""
    shape, zero = (n,) * ndim, be._full((n,) * (ndim - 1), False)
    last = np.zeros(shape[1:], dtype=bool)
    last[(n - 1,) * (ndim - 1)] = True
    ones = np.ones(shape[1:], dtype=bool)
    rng = random.Random(f"a2r:{ndim}:{n}")
    cases = [(zero,) * n, (zero,) * (n - 1) + (last,), (ones,) * n,
             (last,) + (zero,) * (n - 1)]
    cases += [_random_pair(rng, ndim, n)[1].parts for _ in range(5)]
    for parts in cases:
        sliced = SliceArray(tuple(parts), shape)
        dense = np.asarray(sliced)
        got = array_to_relation(sliced)
        assert got == array_to_relation(dense) == _cells(dense)
        assert all(type(x) is int for t in got for x in t)
    assert array_to_relation(SliceArray((zero,) * n, shape)) == frozenset()


def test_array_to_relation_converts_an_array_that_never_changes_once(
        every_array_sliced):
    """A read-only array that owns its memory, and a SliceArray, are
    converted once: a second call returns the same frozenset.  A
    writable array, or a read-only view of one, changed in place reads
    back changed.  An entry goes with its array."""
    n = 3
    dense = np.zeros((n, n), dtype=bool)
    dense[1, 2] = True
    dense.setflags(write=False)
    sliced = stored_relation({(0, 1, 2)}, 3, n)
    for a, want in ((dense, {(1, 2)}), (sliced, {(0, 1, 2)})):
        got = array_to_relation(a)
        assert got == want and array_to_relation(a) is got
    writable = np.zeros((n, n), dtype=bool)
    view = writable[1:]
    view.setflags(write=False)
    assert array_to_relation(writable) == array_to_relation(view) == set()
    writable[2, 0] = True
    assert array_to_relation(writable) == {(2, 0)}
    assert array_to_relation(view) == {(1, 0)}
    kept = len(be._relations)
    del dense, sliced, a
    gc.collect()
    assert len(be._relations) == kept - 2


@pytest.mark.parametrize("ndim", range(5))
def test_array_to_relation_on_dense_arrays_reads_every_true_cell(ndim):
    rng = random.Random(f"a2r-dense:{ndim}")
    for n in range(4):
        dense = np.array([rng.random() < 0.3 for _ in range(n ** ndim)],
                         dtype=bool).reshape((n,) * ndim)
        got = array_to_relation(dense)
        assert got == _cells(dense)
        assert all(type(x) is int for t in got for x in t)


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_no_kernel_assigns_a_temporary_it_never_reads(entry):
    """Every temporary a kernel assigns is read before it is deleted:
    no view, copy or branch is computed for nothing.  No kernel holds a
    storage decision: each returns a relation's array (an identity rule)
    or hands its value to `stored`."""
    for key, rule in entry.build().rules.items():
        source = _Lowering(rule.body, rule.params, rule.frees).source()
        lines = source.splitlines()
        assert not re.search(r"_SHARE_MIN|_filled|_readonly", source), \
            (key, source)
        for line in lines:
            if line.lstrip().startswith("return"):
                assert re.fullmatch(r" +return (r\d+|_stored\(.*)", line), \
                    (key, line)
        for t in set(re.findall(r"^ +(t\d+) = ", source, re.M)):
            word = re.compile(rf"\b{t}\b")
            reads = [line for line in lines
                     if word.search(line) and not line.strip().startswith("del ")
                     and not re.match(rf"^ +{t} = (?!.*\b{t}\b)", line)]
            assert reads, (key, t, source)


def test_a_dead_temporary_is_dropped_with_what_only_it_read():
    stmts = [("assign", "t1", "r0[:, :]"),
             ("assign", "t2", "(~t1)"),
             ("assign", "t3", "r1[:, :]"),
             ("return", "return t3")]
    be._insert_dels(stmts, ())
    assert stmts == [("assign", "t3", "r1[:, :]"), ("return", "return t3")]


def test_kernel_results_are_stored_as_slices_when_large(every_array_sliced):
    """With every array kept as slices, a rule's result of ndim >= 2 is a
    SliceArray whatever kernel path made it, and agrees with numpy; the
    last rule writes a slice on axis 1 after one on axis 0, into a base
    that the first write made a SliceArray."""
    n = 4
    rng = random.Random(3)
    dense = {name: np.array([rng.random() < 0.5 for _ in range(n ** 3)]
                            ).reshape(n, n, n) for name in ("T", "S")}
    rels = {name: stored_relation(array_to_relation(a), 3, n)
            for name, a in dense.items()}
    for p, q in ((1, 2), (2, 2), (0, 3)):
        xp = (np.arange(n) == p)[:, None, None]
        yq = (np.arange(n) == q)[None, :, None]
        for text, want in (
                ("T(x, y, z) & !S(x, y, z)", dense["T"] & ~dense["S"]),
                ("T(x, y, z) | x = p", dense["T"] | xp),
                ("!(x = p) & T(x, y, z) | x = p & S(x, y, z)",
                 np.where(xp, dense["S"], dense["T"])),
                ("x = x | T(x, y, z)", np.ones((n,) * 3, dtype=bool)),
                ("!(x = p) & !(y = q) & T(x, y, z) | y = q & S(x, y, z)"
                 " | x = p & S(x, y, z)", np.where(xp | yq, dense["S"], dense["T"]))):
            got = be.bulk_eval(parse_formula(text), rels, n, {"p": p, "q": q},
                               ("x", "y", "z"))
            assert isinstance(got, SliceArray), text
            _same(got, want)
    for name, a in dense.items():
        _same(rels[name], a)


@pytest.fixture(scope="module")
def planned_sources():
    """The source of every catalog kernel as `interpreter._plan` lowers
    it, by (program, op, relation, target)."""
    sources = []
    function = be._function

    def keep(source, names):
        sources.append(source)
        return function(source, names)

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(be, "_function", keep)
        for entry in pg.catalog():
            prog = entry.build()
            for op, rel in dict.fromkeys((op, rel) for op, rel, _ in prog.rules):
                del sources[:]
                interpreter._plan(prog, op, rel)   # one kernel per target
                for target, source in zip(prog.aux_schema, sources, strict=True):
                    out[(entry.name, op, rel, target)] = source
    return out


def test_no_kernel_compares_a_range_with_a_parameter(planned_sources):
    """`x = p` reads row p of the cached identity, a view, and allocates
    no `(ar == p)`."""
    assert len(planned_sources) == 718
    for key, source in planned_sources.items():
        assert not re.search(r"\bar\b|_arange", source), (key, source)


def test_no_kernel_combines_an_array_with_a_plain_negation(planned_sources):
    """`x & ~Y` is `x > Y`, `x | ~Y` is `x >= Y` and `x ^ ~Y` is `x == Y`:
    one numpy call each, not two."""
    ops = (ast.BitAnd, ast.BitOr, ast.BitXor)
    for key, source in planned_sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ops):
                for side in (node.left, node.right):
                    assert not (isinstance(side, ast.UnaryOp) and
                                isinstance(side.op, ast.Invert)), \
                        (key, ast.unparse(node))


class _Reads(np.ndarray):
    """An array that counts the reads of its cells."""

    def __getitem__(self, index):
        self.reads += 1
        return self.view(np.ndarray)[index]


def test_a_kernel_reads_a_parameter_view_once():
    """prop_4's insert-E P_0_4, as `interpreter._plan` lowers it, reads
    E's column w in four broadcast positions of each of its five
    disjuncts: it reads and counts the column at most once per call, and
    once in some call of a seeded stream."""
    prog = pg.catalog_entry("parity_exists_prop_4").build()
    rule = prog.rules[("ins", "E", "P_0_4")]
    interpreter._plan(prog, "ins", "E")
    n = 6
    state = init_state(prog, n)
    most = {}
    for c in cx.random_changes(n, list(prog.input_schema.items()), 400,
                               random.Random(1)):
        if (c.op, c.relation) == ("ins", "E"):
            env = {**state.input_arrays, **state.builtin_arrays,
                   **state.aux_arrays}
            counted = {"E": env["E"].view(_Reads)}
            counted["E"].reads = 0
            got = be.bulk_eval(rule.body, {**env, **counted}, n,
                               dict(zip(rule.params, c.args)), rule.frees)
            assert np.array_equal(got, be.bulk_eval(
                rule.body, env, n, dict(zip(rule.params, c.args)), rule.frees))
            for name, a in counted.items():
                most[name] = max(most.get(name, 0), a.reads)
        state = step(state, c)
    assert set(most.values()) == {1}, most


@pytest.mark.parametrize("sliced", [False, True], ids=["dense", "sliced"])
def test_an_empty_p_skips_the_parameter_free_mask(sliced, monkeypatch):
    """prop_4's insert-E P_0_4 is `mask & (P_0_4 ^ X)`: the mask says its
    four nodes are uncoloured and pairwise distinct and reads no
    parameter; X reads E's column w.  Called on a state where P_0_4 and
    E's column w are empty, the kernel returns the shared all-false
    constant itself (`_full` of the shape, or with every array sliced
    the one SliceArray `stored` keeps of False), and its source computes
    the mask (the identity read with no parameter) only where a test
    `... is not Z4` holds."""
    if sliced:
        monkeypatch.setattr(be, "_SHARE_MIN", 0)
    prog = pg.catalog_entry("parity_exists_prop_4").build()
    rule = prog.rules[("ins", "E", "P_0_4")]
    n, w = 6, 4
    state = init_state(prog, n)
    for c in [Change("ins", "E", (a, b)) for a, b in
              ((0, 1), (2, 1), (3, 5), (1, 2))] + [Change("ins", "R", (3,))]:
        state = step(state, c)
    assert not array_to_relation(state.aux_arrays["P_0_4"])
    assert not state.input_arrays["E"][:, w].any()
    env = {**state.input_arrays, **state.builtin_arrays, **state.aux_arrays}
    params = dict(zip(rule.params, (0, w)))
    shape = (n,) * 4
    want = stored(False, shape)
    assert want is (be._full(shape, False) if not sliced else want)
    for _ in range(2):
        assert be.bulk_eval(rule.body, env, n, params, rule.frees) is want
    source = _Lowering(rule.body, rule.params, rule.frees).source()
    reads = _mask_reads(ast.parse(source), False)
    assert reads and all(reads), source


def _mask_reads(node, guarded: bool) -> list[bool]:
    """For each read of the identity with no parameter under `node`
    (`eye[:, :, None, None]`, a conjunct of a parameter-free mask),
    whether a test `t is not Z<d>` guards it: it is in the body of such
    an if-statement or conditional expression."""
    if isinstance(node, (ast.If, ast.IfExp)):
        test = node.test
        holds = isinstance(test, ast.Compare) and \
            isinstance(test.ops[0], ast.IsNot) and \
            re.fullmatch(r"Z\d+", getattr(test.comparators[0], "id", ""))
        body = node.body if isinstance(node.body, list) else [node.body]
        orelse = node.orelse if isinstance(node.orelse, list) \
            else [node.orelse]
        inside = guarded or bool(holds)
        return _mask_reads(test, guarded) + \
            [r for b in body for r in _mask_reads(b, inside)] + \
            [r for b in orelse for r in _mask_reads(b, guarded)]
    if isinstance(node, ast.Subscript) \
            and getattr(node.value, "id", "") == "eye" \
            and not any(isinstance(m, ast.Name) for m in ast.walk(node.slice)):
        return [guarded]
    return [r for child in ast.iter_child_nodes(node)
            for r in _mask_reads(child, guarded)]


def test_the_large_graph_kernels_are_the_parents(planned_sources):
    """The 80 kernels of degree_rel_3 and parity_degree_div3, the programs
    of the large-n graph workload, read no relation whole outside a chain
    and so count none: each source equals, up to the numbering of its
    temporaries, the one recorded in graph_large_n_kernels.json (the
    first 16 hex digits of the sha256 of the source with its t<i> and
    c<i> renumbered in order of first use)."""
    with open(Path(__file__).with_name("graph_large_n_kernels.json")) as fh:
        want = json.load(fh)
    got = {}
    for (name, op, rel, target), source in planned_sources.items():
        if name in ("degree_rel_3", "parity_degree_div3"):
            names: dict = {}
            source = re.sub(r"\b[tc]\d+\b", lambda m: names.setdefault(
                m[0], f"{m[0][0]}{len(names)}"), source)
            got[f"{name} {op} {rel} {target}"] = hashlib.sha256(
                source.encode()).hexdigest()[:16]
    assert len(got) == 80
    assert {k for k in got if got[k] != want.get(k)} == set()


def test_a_kernel_writes_a_slice_array_only_through_written(planned_sources):
    """A SliceArray has one write, `written`, which a chain calls when it
    binds axis 0; every other write goes into a dense copy.  No catalog
    kernel names `replaced` or `rewritten`, and each `... is SliceArray`
    test is the test of an if-statement whose body calls `.written(`."""
    for key, source in planned_sources.items():
        assert not re.search(r"\.(replaced|rewritten)\(", source), \
            (key, source)
        tree = ast.parse(source)
        tests = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Compare) and
                 any(getattr(c, "id", "") == "SliceArray"
                     for c in node.comparators)]
        writes = [node.test for node in ast.walk(tree)
                  if isinstance(node, ast.If) and
                  any(isinstance(c, ast.Call) and
                      getattr(c.func, "attr", "") == "written"
                      for part in node.body for c in ast.walk(part))]
        assert all(any(t is w for w in writes) for t in tests), (key, source)


def test_no_kernel_keeps_a_value_between_calls(planned_sources):
    """A kernel computes its value from its arguments alone: none takes a
    slot argument (`S<i>`) or keeps a value for a later call."""
    for key, source in planned_sources.items():
        head = source.split(":", 1)[0]
        assert not re.search(r"\bS\d+\b", head), (key, head)
        assert "_keep" not in source, (key, source)


def test_planning_lowers_each_rule_once(monkeypatch):
    """Planning every (op, input relation) of the catalog lowers each of
    its 718 rules once, on its own."""
    made = []

    class Counted(be._Lowering):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(be, "_Lowering", Counted)
    rules = 0
    for entry in pg.catalog():
        prog = entry.build()
        rules += len(prog.rules)
        for op, rel in dict.fromkeys((op, rel) for op, rel, _ in prog.rules):
            interpreter._plan(prog, op, rel)
    assert rules == len(made) == 718
