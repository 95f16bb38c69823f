import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyncomplab import bulk_eval as be
from dyncomplab.bulk_eval import (_Lowering, array_to_relation, bulk_eval,
                                  relation_to_array, stored_relation)
from dyncomplab.formulas import (And, Atom, Const, Eq, Exists, FALSE, Forall,
                                 FormulaError, Not, Or, TRUE, Var, Xor, atom,
                                 classify, conj, disj, eq, evaluate,
                                 free_variables, materialise_builtins, neg,
                                 parse_formula, pretty, validate_formula)
from dyncomplab.structures import DynLabError, Structure

SCHEMA = {"E": 2, "R": 1, "U": 1, "Z": 0}
VARS = ("x", "y", "z")


def random_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            rel = rng.choice(list(SCHEMA))
            terms = [rng.choice(VARS) if rng.random() < 0.7
                     else rng.randrange(4) for _ in range(SCHEMA[rel])]
            return atom(rel, *terms)
        if kind == 1:
            return eq(rng.choice(VARS), rng.choice(VARS) if rng.random() < .6
                      else rng.randrange(4))
        return TRUE if kind == 2 else FALSE
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind < 4:
        op = (And, Or, Xor)[kind - 1]
        return op(random_formula(rng, depth - 1),
                  random_formula(rng, depth - 1))
    op = Exists if kind == 4 else Forall
    return op(rng.choice(VARS), random_formula(rng, depth - 1))


def random_structure(rng, n, schema=SCHEMA):
    contents = {}
    for rel, ar in schema.items():
        tuples = []
        for t in __import__("itertools").product(range(n), repeat=ar):
            if rng.random() < 0.4:
                tuples.append(t)
        contents[rel] = tuples
    return Structure.make(n, schema, contents)


SPLIT_SCHEMA = {**SCHEMA, "T": 3}


def split_rule(rng, frees, params, base=None):
    """`!(x = p) & A | x = p & y = q & B | ...`: a rule body whose
    disjuncts bind free variables to parameters or constants, the shape
    bulk_eval lowers to a base plus slice writes.  `base` is A when
    given."""
    names = list(frees) + list(params)

    def value():
        return rng.choice(list(params)) if params and rng.random() < 0.8 \
            else rng.randrange(5)

    def body():
        t = atom("T", *(rng.choice(names) if rng.random() < 0.8
                        else rng.randrange(4) for _ in range(3)))
        f = random_formula(rng, 2)
        return rng.choice([t, f, conj([t, f]), disj([neg(t), f])])

    parts = []
    for _ in range(rng.randrange(1, 4)):
        bound = rng.sample(frees, rng.randrange(1, len(frees) + 1))
        parts.append(conj([eq(x, value()) for x in bound] + [body()]))
    off = rng.sample(frees, rng.randrange(len(frees) + 1))
    parts.insert(rng.randrange(len(parts) + 1),
                 conj([neg(eq(x, value())) for x in off] +
                      [body() if base is None else base]))
    return disj(parts)


def full_assignment(rng, n):
    return {v: rng.randrange(n) for v in VARS}


def test_parse_basics():
    f = parse_formula("E(x, y) & !R(x)")
    assert classify(f) == "quantifier-free"
    g = parse_formula("exists x. E(x, y)")
    assert classify(g) == "first-order"
    assert free_variables(g) == frozenset({"y"})


def test_implication_desugars():
    assert parse_formula("A() -> B()") == Or(Not(atom("A")), atom("B"))


def test_precedence():
    f = parse_formula("R(x) | R(y) & R(z)")
    assert isinstance(f, Or) and isinstance(f.right, And)
    g = parse_formula("!R(x) & R(y)")
    assert isinstance(g, And) and isinstance(g.left, Not)
    h = parse_formula("R(x) ^ R(y) | R(z)")
    assert isinstance(h, Or) and isinstance(h.left, Xor)


def test_quantifier_scope_extends_right():
    f = parse_formula("exists x. E(x, y) & R(x)")
    assert isinstance(f, Exists) and isinstance(f.body, And)


def test_parse_errors():
    for bad in ("E(x", "& R(x)", "exists . R(x)", "R(x) &", "1 = "):
        with pytest.raises(FormulaError):
            parse_formula(bad)


def test_validate_formula():
    validate_formula(parse_formula("E(x, y)"), SCHEMA)
    with pytest.raises(DynLabError):
        validate_formula(parse_formula("E(x)"), SCHEMA)
    with pytest.raises(DynLabError):
        validate_formula(parse_formula("Q(x)"), SCHEMA)


def test_builders():
    assert conj([]) == TRUE and disj([]) == FALSE
    assert neg(atom("R", "x")) == Not(atom("R", Var("x")))
    assert atom("E", "x", 2) == Atom("E", (Var("x"), Const(2)))


def test_builtins_order_and_bit():
    b = materialise_builtins(8, ["order", "bit"])
    assert b.has("leq", (2, 5)) and not b.has("leq", (5, 2))
    assert b.has("leq", (3, 3))
    # bit(v, i): i-th bit of v, least significant bit = 1
    assert b.tuples("bit") >= {(5, 1), (5, 3), (6, 2), (6, 3)}
    assert not b.has("bit", (5, 2)) and not b.has("bit", (0, 1))


def test_evaluate_simple():
    s = Structure.make(3, {"E": 2}, {"E": [(0, 1), (1, 2)]})
    assert evaluate(parse_formula("exists y. E(x, y)"), s, {"x": 0})
    assert not evaluate(parse_formula("exists y. E(x, y)"), s, {"x": 2})
    assert evaluate(parse_formula("forall x. exists y. E(x, y) | x = 2"), s, {})


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng)
        assert parse_formula(pretty(f)) == f, pretty(f)


def test_semantic_laws_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 5)
        s = random_structure(rng, n)
        a = full_assignment(rng, n)
        f = random_formula(rng)
        g = random_formula(rng)
        v = rng.choice(VARS)
        assert evaluate(Not(Not(f)), s, a) == evaluate(f, s, a)
        assert evaluate(Xor(f, g), s, a) == (
            evaluate(f, s, a) != evaluate(g, s, a))
        assert evaluate(Not(And(f, g)), s, a) == \
            evaluate(Or(Not(f), Not(g)), s, a)
        assert evaluate(Exists(v, f), s, a) == \
            evaluate(Not(Forall(v, Not(f))), s, a)


def test_bulk_eval_matches_evaluate():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(1, 5)
        s = random_structure(rng, n)
        f = random_formula(rng)
        frees = tuple(sorted(free_variables(f)))
        arrays = {rel: relation_to_array(tuples, ar, n)
                  for rel, (ar, tuples) in s.relations.items()}
        want = frozenset(
            b for b in __import__("itertools").product(range(n),
                                                       repeat=len(frees))
            if evaluate(f, s, dict(zip(frees, b))))
        # writable arrays; then read-only ones, twice, so that a value
        # kept from the first call would show in the second
        frozen = _frozen(arrays)
        for rels in (arrays, frozen, frozen):
            got = array_to_relation(bulk_eval(f, rels, n, {}, frees))
            assert got == want, pretty(f)
    # parameters bound to values (some >= n), quantifiers that rebind a
    # parameter's name, constants >= n, repeated variables, n = 0
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(0, 5)
        f = random_formula(rng)
        names = sorted(free_variables(f) | {rng.choice(VARS)})
        rng.shuffle(names)
        k = rng.randrange(len(names) + 1)
        params = {v: rng.randrange(n + 2) for v in names[:k]}
        _check_bulk(f, random_structure(rng, n), params, tuple(names[k:]))
    fixed = [
        ("E(x, u) & !U(u) | u = y", {"u": 1}, ("x", "y"), 3),
        ("exists u. E(u, x) & R(u)", {"u": 2}, ("x",), 3),
        ("U(u) & (forall u. E(x, u) | u = x)", {"u": 0}, ("x",), 3),
        ("E(x, u) | u = x | u = v", {"u": 5, "v": 5}, ("x",), 3),
        ("E(x, 7) | x = 9 | R(5) | E(4, 4)", {}, ("x",), 3),
        ("E(x, x) & (exists y. E(y, y) & E(x, y))", {}, ("x",), 3),
        ("E(x, x) & U(u)", {"u": 1}, ("y", "x"), 3),
        ("!(x = u & R(v)) & E(x, y) | x = u & R(v) & (U(y) | E(y, u))",
         {"u": 1, "v": 0}, ("x", "y"), 3),
        ("E(x, y) | x = 2 & y = u | y = 5 & U(x)", {"u": 0}, ("y", "x"), 3),
        ("E(x, y) | x = u & U(y)", {"u": 4}, ("x", "y"), 3),
        ("forall x. U(x)", {}, (), 0),
        ("exists x. U(x)", {}, (), 0),
        ("!(exists x. U(x)) & (forall y. R(y))", {}, ("z",), 0),
    ]
    for text, params, frees, n in fixed:
        _check_bulk(parse_formula(text), random_structure(rng, n), params, frees)
    # one formula object, in a row, under two orders of the free variables
    # and two parameter bindings
    f = parse_formula("E(x, y) & !U(u) | R(x) & u = y")
    s = random_structure(rng, 4)
    for params, frees in [({"u": 1}, ("x", "y")), ({"u": 1}, ("y", "x")),
                          ({"u": 3}, ("y", "x")), ({"y": 2, "u": 0}, ("x",)),
                          ({}, ("u", "x", "y")), ({"u": 1}, ("x", "y"))]:
        _check_bulk(f, s, params, frees)
    # rules lowered to a base plus slice writes: nested splits on two and
    # three axes, disjuncts refuted by an outer split, p = q, parameters
    # >= n, n = 0 and n = 1
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(0, 5)
        names = list(VARS)
        rng.shuffle(names)
        k = rng.randrange(1, 4)
        frees, rest = tuple(names[:k]), names[k:] + ["p", "q"]
        params = {v: rng.randrange(n + 2) for v in rest}
        if rng.random() < 0.3:
            params["q"] = params["p"]
        _check_bulk(split_rule(rng, frees, params), random_structure(
            rng, n, SPLIT_SCHEMA), params, frees)
    split = [
        "!(x = p) & T(x, y, z) | x = p & y = q & E(y, z) | "
        "y = q & z = p & U(x) | z = 1 & T(z, x, y)",
        "T(x, y, z) | x = p & y = q & U(z) | y = q & E(x, z) | x = p & R(y)",
        "!(x = p) & !(y = q) & T(x, y, z) | x = p & T(q, y, z) | "
        "y = q & T(x, p, z)",
        "E(x, y) | x = p & y = p & U(x) | y = 6 & R(x)",
    ]
    for text in split:
        f = parse_formula(text)
        frees = ("x", "y", "z") if "z" in text else ("y", "x")
        for n in (0, 1, 3):
            for params in ({"p": 1, "q": 2}, {"p": 2, "q": 2},
                           {"p": 0, "q": 5}, {"p": 7, "q": 7}):
                _check_bulk(f, random_structure(rng, n, SPLIT_SCHEMA), params,
                            frees)


def test_a_split_from_a_relation_array_matches_evaluate(monkeypatch):
    """Splits whose base is a whole atom, in axis order: from a dense
    array, and from the SliceArray a state keeps (whatever its size
    here), each copied up front.  Neither input is written to."""
    monkeypatch.setattr(be, "_SHARE_MIN", 0)
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(0, 5)
        names = list(VARS)
        rng.shuffle(names)
        k = rng.randrange(1, 4)
        frees, rest = tuple(names[:k]), names[k:] + ["p", "q"]
        params = {v: rng.randrange(n + 2) for v in rest}
        base = atom({1: "U", 2: "E", 3: "T"}[k], *frees)
        s = random_structure(rng, n, SPLIT_SCHEMA)
        rule = split_rule(rng, frees, params, base)
        for as_stored in (False, True):
            _check_bulk(rule, s, params, frees, as_stored)
            _check_bulk(base, s, params, frees, as_stored)


def test_bulk_eval_of_a_deep_formula():
    f = conj([atom("U", "x") if i % 2 else neg(atom("E", "x", "u"))
              for i in range(900)])
    s = Structure.make(3, SCHEMA, {"U": [(0,), (2,)], "E": [(2, 1)]})
    _check_bulk(f, s, {"u": 1}, ("x",))


def _and_chain(depth):
    """`!x = v & !L0(x, v) & ... & !L<depth-1>(x, v) & E(x, y)`: each
    conjunct may be all-false at run time, so each `&` tests its operands."""
    return parse_formula(" & ".join(
        ["!x = v"] + [f"!L{i}(x, v)" for i in range(depth)] + ["E(x, y)"]))


def _xor_chain(depth):
    """φ_0 = `E(x, y)`, φ_{i+1} = `(φ_i & !x = v) ^ L_i(x, v)`."""
    text = "E(x, y)"
    for i in range(depth):
        text = f"(({text}) & !x = v) ^ L{i}(x, v)"
    return parse_formula(text)


@pytest.mark.parametrize("chain", [_and_chain, _xor_chain])
def test_kernel_source_grows_linearly_with_the_formula(chain, monkeypatch):
    """An operand that an `&`, `|` or `^` repeats in each branch of a
    run-time constant test is named first, so the source grows by at most
    a constant per conjunct, not twice per operand.  Each value matches
    `evaluate`, dense and with every base sliced."""
    sizes = [len(_Lowering(chain(d), ("v",), ("x", "y")).source())
             for d in (4, 8, 12)]
    assert all(b - a <= 4 * 400 for a, b in zip(sizes, sizes[1:])), sizes
    monkeypatch.setattr(be, "_SHARE_MIN", 0)
    schema = {"E": 2, **{f"L{i}": 2 for i in range(12)}}
    rng = random.Random(f"linear:{chain.__name__}")
    for d in (4, 8, 12):
        f = chain(d)
        for n in (1, 3, 4):
            s = random_structure(rng, n, schema)
            for v in range(n + 1):
                for as_stored in (False, True):
                    _check_bulk(f, s, {"v": v}, ("x", "y"), as_stored)


def test_a_disjunct_refuted_by_an_outer_split_is_not_split_on():
    """Where z != w the second disjunct is false, so the lowering splits
    on y = v only inside z = w: a split on y = v where z != w would copy
    the base and write its own values back.  The one write of the cells
    (w, :, v) goes into one slice of T's SliceArray, or into a copy of a
    dense T."""
    f = parse_formula("T(z, x, y) | z = w & E(z, x) & y = v")
    source = _Lowering(f, ("w", "v"), ("z", "x", "y")).source()
    assert len(re.findall(r"^ +t\d+ = r\d+\.written\(", source, re.M)) == 1, \
        source
    assert len(re.findall(r"^ +t\d+\[.*\] = ", source, re.M)) == 1, source


# Rules that keep T wherever their equalities fail: the kernel computes
# them only on the cells the equalities bind, a column, a point or a row,
# and returns T's own array when those cells hold the value already.
CELL_RULES = [  # rule, frees, the term axis 0 is bound to (None: free)
    ("T(x, y, z) | x = p & y = q & (U(z) | E(x, z))", ("x", "y", "z"), "p"),
    ("T(x, y, z) | x = p & (R(y) & E(y, z)) & y = q", ("x", "y", "z"), "p"),
    ("!(x = p) & T(x, y, z) | x = p & y = q", ("x", "y", "z"), "p"),
    ("T(x, y, z) | x = 2 & y = p & U(z)", ("x", "y", "z"), 2),
    ("T(z, x, y) | z = p & x = q & y = 1 & R(x)", ("z", "x", "y"), "p"),
    ("E(x, y) | x = p & y = q & !U(x)", ("x", "y"), "p"),
    ("!(x = p) & E(x, y) | x = p & y = q", ("x", "y"), "p"),
    ("T(x, y, z) | y = q & z = p & R(x)", ("x", "y", "z"), None),
]


def _counted_copies(monkeypatch) -> dict:
    """Count the full-shape copies kernels make: a `_copy` that returns a
    new array, a SliceArray's dense copy counted once, where
    `SliceArray.copy` makes it."""
    seen = {"n": 0}
    copy, densify = be._copy, be.SliceArray.copy

    def counted_copy(a, shape):
        out = copy(a, shape)
        seen["n"] += out is not a and a.__class__ is not be.SliceArray
        return out

    def counted_densify(a):
        seen["n"] += 1
        return densify(a)

    monkeypatch.setitem(be._NAMESPACE, "_copy", counted_copy)
    monkeypatch.setattr(be, "_copy", counted_copy)
    monkeypatch.setattr(be.SliceArray, "copy", counted_densify)
    return seen


@pytest.mark.parametrize("sliced", [False, True], ids=["dense", "sliced"])
@pytest.mark.parametrize("text,frees,at0", CELL_RULES,
                         ids=[t for t, _, _ in CELL_RULES])
def test_a_point_or_column_write_keeps_or_copies_its_relation(
        text, frees, at0, sliced, monkeypatch):
    """Each rule, on dense arrays or on SliceArrays (every array of ndim
    >= 2 kept as slices), with p and q in range, equal, and out of range
    (k false): the result equals `evaluate` on writable and on read-only
    inputs, whose writable flags stay as they were.  A call that leaves
    the bound cells as they are returns the relation's array itself, and
    so does a second call on a result.  A call that changes them makes
    one copy: one new slice of a SliceArray that shares every other when
    axis 0 is bound, and otherwise a dense copy of the whole array."""
    if sliced:
        monkeypatch.setattr(be, "_SHARE_MIN", 0)
    copies = _counted_copies(monkeypatch)
    f = parse_formula(text)
    rel = "E" if text.count("E(x, y)") else "T"
    rng = random.Random(f"cells:{text}:{sliced}")
    changed = unchanged = 0
    for _ in range(40):
        n = rng.randrange(1, 5)
        p, q = rng.choice([(rng.randrange(n), rng.randrange(n)), (n, 0),
                           (0, n + 1), (n - 1, n - 1)])
        params = {"p": p, "q": q}
        s = random_structure(rng, n, SPLIT_SCHEMA)
        _check_bulk(f, s, params, frees, as_stored=sliced)
        build = stored_relation if sliced else relation_to_array
        for frozen in (False, True):
            arrays = {r: build(tuples, ar, n)
                      for r, (ar, tuples) in s.relations.items()}
            if frozen:
                arrays = _frozen(arrays)
            old = arrays[rel]
            copies["n"] = 0
            got = bulk_eval(f, arrays, n, params, frees)
            assert array_to_relation(got) == _want(f, arrays, n, params, frees)
            if got is old:
                assert copies["n"] == 0
                unchanged += 1
                continue
            assert not got.flags.writeable
            assert not np.array_equal(got, old), (text, params)
            changed += 1
            if sliced and at0 is not None:
                assert copies["n"] == 0
                written = [i for i in range(n)
                           if got.parts[i] is not old.parts[i]]
                assert written == [params.get(at0, at0)]
            else:
                assert copies["n"] == 1
            again = bulk_eval(f, {**arrays, rel: got}, n, params, frees)
            assert again is got, (text, params)
    assert unchanged and changed


# Rules whose atoms read E through a parameter, a view broadcast to more
# axes (`E(x, w)` over (x, y, z)), and chains that bind one, two and
# three axes and compute their value in the compact shape of those cells.
VIEW_RULES = [  # rule, frees
    ("E(x, w) & U(y) | R(x) & E(y, w)", ("x", "y")),
    ("!E(x, w) & R(y) | E(y, v) ^ U(x)", ("x", "y")),
    ("T(x, y, z) ^ (E(x, w) & E(y, w) & U(z))", ("x", "y", "z")),
    ("T(x, y, z) & !(E(x, w) & E(z, v)) | E(y, w) & R(z)", ("x", "y", "z")),
    ("T(x, y, z) | x = w & E(y, v) & R(z)", ("x", "y", "z")),
    ("T(x, y, z) | x = w & y = v & (E(z, w) | U(z))", ("x", "y", "z")),
    ("!(x = w) & T(x, y, z) | x = w & (T(x, y, z) & !E(y, v) | "
     "E(y, w) & E(v, z))", ("x", "y", "z")),
    ("T(z, x, y) | z = w & x = v & y = u & E(w, v)", ("z", "x", "y")),
    ("T(x, y, z) | x = w & y = w & E(z, w)", ("x", "y", "z")),
    ("T(x, y, z) | y = v & E(x, w) & E(z, v)", ("x", "y", "z")),
    ("T(x, y, z) | y = v & z = w & (exists u. E(x, u) & E(u, w))",
     ("x", "y", "z")),
    ("E(x, y) | x = w & E(y, v) & !E(w, y)", ("x", "y")),
    # the chain's relation inside a quantifier: not the chain's own cells
    ("E(x, y) | x = w & (exists s. E(x, y) & E(y, s))", ("x", "y")),
    ("T(x, y, z) | x = w & (exists s. T(x, y, z) & E(z, s))",
     ("x", "y", "z")),
    ("T(x, y, z) | x = w & z = v & (exists s. T(x, y, z) & !E(s, y))",
     ("x", "y", "z")),
]


@pytest.mark.parametrize("sliced", [False, True], ids=["dense", "sliced"])
@pytest.mark.parametrize("text,frees", VIEW_RULES,
                         ids=[t for t, _ in VIEW_RULES])
def test_parameter_views_and_compact_chains_match_evaluate(
        text, frees, sliced, monkeypatch):
    """Each rule agrees with `evaluate` (`_check_bulk`: writable inputs,
    then read-only ones twice) on dense arrays and on SliceArrays, with
    the columns and rows of E that the parameters pick all-false, partly
    true or out of range (a parameter of n or more)."""
    if sliced:
        monkeypatch.setattr(be, "_SHARE_MIN", 0)
    f = parse_formula(text)
    rng = random.Random(f"views:{text}:{sliced}")
    for _ in range(30):
        n = rng.randrange(1, 5)
        params = {p: rng.choice([rng.randrange(n), n, n + 1])
                  for p in ("w", "v", "u")}
        s = random_structure(rng, n, SPLIT_SCHEMA)
        edges = set(s.tuples("E"))
        for p in params.values():
            if rng.random() < 0.5:  # p's column and row all-false
                edges = {e for e in edges if p not in e}
        contents = {rel: s.tuples(rel) for rel in SPLIT_SCHEMA}
        s = Structure.make(n, SPLIT_SCHEMA, {**contents, "E": edges})
        _check_bulk(f, s, params, frees, as_stored=sliced)


# Equalities of a free variable with a parameter, which a kernel reads as
# a row of the identity: a parameter out of range, negative ones
# included, must read as all-false (a negative index would wrap around).
EQ_RULES = [  # rule, frees
    ("x = w", ("x",)),
    ("x = w", ("y", "x")),
    ("(x = v | x = w) & R(x)", ("x",)),
    ("(x = v | x = w) & R(x)", ("y", "x")),
    ("!x = w & T(x)", ("x",)),
    ("!x = w & T(x)", ("x", "y")),
    ("x = w & E(x, y)", ("x", "y")),
    ("x = w & E(x, y)", ("y", "x")),
]
EQ_SCHEMA = {"E": 2, "R": 1, "T": 1}


@pytest.mark.parametrize("sliced", [False, True], ids=["dense", "sliced"])
@pytest.mark.parametrize("text,frees", EQ_RULES,
                         ids=[f"{t} over {','.join(f)}" for t, f in EQ_RULES])
def test_parameter_equalities_match_evaluate(text, frees, sliced,
                                             monkeypatch):
    """Each rule agrees with `evaluate` at n = 0, 1 and 4 for w and v each
    of -1, 0, n - 1, n and n + 3, on dense arrays and on SliceArrays."""
    if sliced:
        monkeypatch.setattr(be, "_SHARE_MIN", 0)
    f = parse_formula(text)
    rng = random.Random(f"eq:{text}:{frees}:{sliced}")
    for n in (0, 1, 4):
        s = random_structure(rng, n, EQ_SCHEMA)
        values = (-1, 0, n - 1, n, n + 3)
        for w in values:
            for v in values:
                _check_bulk(f, s, {"w": w, "v": v}, frees, as_stored=sliced)


def _masked_rules(depth: int) -> list[str]:
    """Rules shaped as prop_k's P_{l,m} updates, `mask & (T ^ X)`, and
    the two orders of `T & mask`: T a whole read over `depth` axes, the
    mask parameter-free (the free variables uncoloured and pairwise
    distinct) and X a product of views of E's column w."""
    xs = [f"x{i}" for i in range(depth)]
    t = f"T{depth}({', '.join(xs)})"
    mask = " & ".join([f"!R({x})" for x in xs] + [
        f"!{a} = {b}" for a, b in itertools.combinations(xs, 2)])
    view = " & ".join(f"E({x}, w)" for x in xs)
    return [f"{mask} & ({t} ^ ({view}))", f"{t} & ({mask})", f"{mask} & {t}"]


MASKED_RULES = [(d, text) for d in (2, 3, 4) for text in _masked_rules(d)]
MASKED_SCHEMA = {"T2": 2, "T3": 3, "T4": 4, "R": 1, "E": 2}


@pytest.mark.parametrize("sliced", [False, True], ids=["dense", "sliced"])
@pytest.mark.parametrize("depth,text", MASKED_RULES,
                         ids=[t for _, t in MASKED_RULES])
def test_a_counted_whole_read_matches_evaluate(depth, text, sliced,
                                               monkeypatch):
    """Each rule counts its whole read of T (`_any`), and agrees with
    `evaluate` at n = 0..5 with T empty and not, and X (E's column w)
    empty and not, on dense arrays and with every base sliced."""
    if sliced:
        monkeypatch.setattr(be, "_SHARE_MIN", 0)
    f = parse_formula(text)
    frees = tuple(f"x{i}" for i in range(depth))
    assert "_any(" in _Lowering(f, ("w",), frees).source()
    rng = random.Random(f"masked:{text}:{sliced}")
    for n in range(6):
        w = rng.randrange(n) if n else 0
        s = random_structure(rng, n, MASKED_SCHEMA)
        contents = {rel: set(s.tuples(rel)) for rel in MASKED_SCHEMA}
        contents["R"] = {t for t in contents["R"] if rng.random() < 0.3}
        t_rel = f"T{depth}"
        for t_empty, x_empty in itertools.product((True, False), repeat=2):
            t = set() if t_empty or not n else \
                contents[t_rel] | {(n - 1,) * depth}
            e = {(a, b) for a, b in contents["E"] if b != w}
            if not x_empty and n:
                e |= {(a, w) for a in range(n) if rng.random() < 0.7}
                e.add((0, w))
            world = Structure.make(n, MASKED_SCHEMA,
                                   {**contents, t_rel: t, "E": e})
            _check_bulk(f, world, {"w": w}, frees, as_stored=sliced)


def test_a_slice_array_is_counted_part_by_part(monkeypatch):
    """`_any` reads a SliceArray part by part and never densifies it: all
    parts the shared zero part, and one true cell in the last part."""
    monkeypatch.setattr(be, "_SHARE_MIN", 0)
    n = 4
    empty = stored_relation((), 3, n)
    cell = stored_relation([(n - 1, 2, 1)], 3, n)
    calls = []
    monkeypatch.setattr(be.SliceArray, "__array__",
                        lambda *args, **kw: calls.append(args))
    assert not be._any(empty) and be._any(cell)
    assert not calls
    assert not be._any(np.zeros((n, n), dtype=bool))
    assert be._any(be._full((n, n), True))


def _frozen(arrays):
    """Read-only copies of the dense arrays of `arrays`, as a state holds
    them; a SliceArray is read-only already."""
    out = {}
    for rel, a in arrays.items():
        if a.flags.writeable:
            a = a.copy()
            a.setflags(write=False)
        out[rel] = a
    return out


def _check_bulk(f, s, params, frees, as_stored=False):
    """bulk_eval agrees with evaluate, leaves its input arrays as they
    were, writable flag included, and returns a read-only array or one of
    them.  The inputs are dense arrays, or as a state stores them when
    `as_stored`; then read-only copies of them, evaluated twice, so that
    a value kept from the first call would show in the second."""
    build = stored_relation if as_stored else relation_to_array
    arrays = {rel: build(tuples, ar, s.n)
              for rel, (ar, tuples) in s.relations.items()}
    before = {rel: a.copy() for rel, a in arrays.items()}
    writeable = {rel: a.flags.writeable for rel, a in arrays.items()}
    got = bulk_eval(f, arrays, s.n, params, frees)
    assert got.shape == (s.n,) * len(frees) and got.dtype == bool
    assert not got.flags.writeable or any(got is a for a in arrays.values())
    for rel, a in arrays.items():
        assert np.array_equal(a, before[rel]), rel
        assert a.flags.writeable == writeable[rel], rel
    want = frozenset(
        b for b in __import__("itertools").product(range(s.n), repeat=len(frees))
        if evaluate(f, s, {**params, **dict(zip(frees, b))}))
    assert array_to_relation(got) == want, (pretty(f), params, frees, s.n)
    frozen = _frozen(arrays)
    for _ in range(2):
        got = bulk_eval(f, frozen, s.n, params, frees)
        assert array_to_relation(got) == want, (pretty(f), params, frees, s.n)


# ------------------------------------------- arrays that change in place

def _slots_of(f):
    """The list-valued default arguments of f's cached kernel, where it
    would keep a value from one call to the next: there are none."""
    return [a for a in be._kernels[id(f)][3].__defaults__
            if a.__class__ is list]


def _want(f, arrays, n, params, frees):
    """f's value by `evaluate`, on the structure the arrays hold."""
    s = Structure.make(n, {rel: a.ndim for rel, a in arrays.items()},
                       {rel: array_to_relation(a) for rel, a in arrays.items()})
    return frozenset(
        b for b in __import__("itertools").product(range(n), repeat=len(frees))
        if evaluate(f, s, {**params, **dict(zip(frees, b))}))


def _arrays(rng, n, schema=SCHEMA, writeable=False):
    out = {}
    for rel, (ar, tuples) in random_structure(rng, n, schema).relations.items():
        out[rel] = relation_to_array(tuples, ar, n)
        out[rel].setflags(write=writeable)
    return out


def test_a_slot_keeps_no_value_of_a_writable_array():
    """A writable array changed in place between two calls: the result
    follows the change, as no kernel keeps a value read from it."""
    f = parse_formula("E(x, y) & !(R(x) | U(y))")
    rng = random.Random(43)
    n, frees = 4, ("x", "y")
    rels = _arrays(rng, n, writeable=True)
    rels["E"][...] = True
    for x in range(n):
        got = bulk_eval(f, rels, n, {}, frees)
        assert array_to_relation(got) == _want(f, rels, n, {}, frees)
        rels["R"][x] = not rels["R"][x]
        rels["U"][(x + 1) % n] = not rels["U"][(x + 1) % n]
    assert not _slots_of(f)


def test_a_slot_keeps_no_value_of_a_view():
    """A read-only view of a writable array changes when its base does:
    the result follows the base, as no kernel keeps a value read from
    it."""
    f = parse_formula("E(x, y) & !(R(x) | U(y))")
    rng = random.Random(59)
    n, frees = 4, ("x", "y")
    rels = _arrays(rng, n)
    base = np.zeros((2, n), dtype=bool)
    rels["R"] = base[0]
    rels["R"].setflags(write=False)
    for x in range(n):
        got = bulk_eval(f, rels, n, {}, frees)
        assert array_to_relation(got) == _want(f, rels, n, {}, frees)
        base[0, x] = True
    assert not _slots_of(f)


def test_a_slot_follows_a_read_array_replaced_by_another():
    """The same formula object and parameters, with R's array replaced by
    another read-only array with other cells: the parameter-free
    subformula is computed again from the new array, not answered with
    R's old value."""
    f = parse_formula("E(x, y) & !(R(x) | U(y)) | x = u")
    rng = random.Random(41)
    n, frees, params = 4, ("x", "y"), {"u": 1}
    rels = _arrays(rng, n)
    got = bulk_eval(f, rels, n, params, frees)
    assert array_to_relation(got) == _want(f, rels, n, params, frees)
    for _ in range(5):
        other = np.array([not v for v in rels["R"]])
        other.setflags(write=False)
        rels = {**rels, "R": other}
        got = bulk_eval(f, rels, n, params, frees)
        assert array_to_relation(got) == _want(f, rels, n, params, frees)
    assert not _slots_of(f)


def test_a_slot_keeps_no_value_read_from_a_slice_array():
    """A formula over a SliceArray and dense arrays, called twice with
    the same inputs: both results match `evaluate`, and the kernel keeps
    nothing that would hold the SliceArray alive after a later state
    replaces it."""
    f = parse_formula("E(x, y) & !(T(x, y, 0) | R(x)) | E(y, x) & !(R(y) | U(x))")
    n = 32
    rels = _arrays(random.Random(61), n, SPLIT_SCHEMA)
    rels["T"] = stored_relation(array_to_relation(rels["T"]), 3, n)
    assert rels["T"].__class__ is be.SliceArray
    for _ in range(2):
        got = bulk_eval(f, rels, n, {}, ("x", "y"))
        assert array_to_relation(got) == _want(f, rels, n, {}, ("x", "y"))
    assert not _slots_of(f)


def test_a_slot_keeps_no_value_of_share_min_cells():
    """At n = 32 a subformula over three axes has _SHARE_MIN cells and
    one over two axes fewer: the value matches `evaluate` over both, and
    the kernel keeps neither."""
    f = parse_formula("T(x, y, z) & !(R(x) | U(y)) | E(x, y) & !(R(y) | U(x))")
    n = 32
    assert n ** 3 >= be._SHARE_MIN > n ** 2
    rels = _arrays(random.Random(53), n, SPLIT_SCHEMA)
    for _ in range(2):
        got = bulk_eval(f, rels, n, {}, ("x", "y", "z"))
        assert array_to_relation(got) == \
            _want(f, rels, n, {}, ("x", "y", "z"))
    assert not _slots_of(f)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_bit_matches_binary(v):
    n = v + 1
    b = materialise_builtins(min(n, 64), ["bit"])
    if v < 64:
        want = {i + 1 for i in range(v.bit_length()) if v >> i & 1}
        assert {i for (w, i) in b.tuples("bit") if w == v} == want
