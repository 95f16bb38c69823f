import random

import pytest

from dyncomplab import symcircuit as sc


def _majority3():
    # three inputs, two gates {1,2,3} and {1,2}, output true when at least
    # two gates are active
    return sc.make_circuit(3, 3, [frozenset({0, 1, 2}), frozenset({0, 1})],
                           [False, False, True])


def test_activated_counts():
    st = sc.sym_init(_majority3(), [False] * 3)
    assert st.activated == 0
    sc.sym_flip(st, 0)
    sc.sym_flip(st, 1)
    assert st.activated == 1              # only {1,2} fully on
    sc.sym_flip(st, 2)
    assert st.activated == 2
    assert sc.sym_output(st) is True


def test_flip_is_involution():
    circ = _majority3()
    st = sc.sym_init(circ, [False] * 3)
    base = dict(st.counters)
    sc.sym_flip(st, 2)
    sc.sym_flip(st, 2)
    assert dict(st.counters) == base
    assert st.assignment == [False] * 3


def test_counters_stay_consistent_under_random_flips():
    rng = random.Random(5)
    for trial in range(15):
        m = rng.randrange(2, 7)
        gates = []
        for _ in range(rng.randrange(1, 5)):
            size = rng.randrange(1, m + 1)
            gates.append(frozenset(rng.sample(range(m), size)))
        h = [rng.random() < 0.5 for _ in range(len(gates) + 1)]
        circ = sc.make_circuit(m, m, gates, h)
        st = sc.sym_init(circ, [False] * m)
        for _ in range(60):
            sc.sym_flip(st, rng.randrange(m))
            assert sc.sym_output(st) == sc.sym_eval_direct(
                circ, st.assignment)
        assert st.counters == sc.counters_reference(circ, st.assignment)
        assert all(v >= 0 for v in st.counters.values())


def test_make_circuit_validation():
    with pytest.raises(sc.CircuitError):
        sc.make_circuit(3, 2, [frozenset({0, 1, 2})], [False, True])
    with pytest.raises(sc.CircuitError):
        sc.make_circuit(3, 3, [frozenset()], [False, True])
    with pytest.raises(sc.CircuitError):
        sc.make_circuit(3, 3, [frozenset({3})], [False, True])
    with pytest.raises(sc.CircuitError):
        sc.make_circuit(3, 3, [frozenset({0})], [False])


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_make_circuit_rejects_values_that_are_not_ints(bad):
    with pytest.raises(sc.CircuitError, match="must be an int"):
        sc.make_circuit(3, 3, [frozenset({0, bad})], [False, True])
    with pytest.raises(sc.CircuitError, match="must be an int"):
        sc.make_circuit(bad, 3, [frozenset({0})], [False, True])
    with pytest.raises(sc.CircuitError, match="must be an int"):
        sc.make_circuit(3, bad, [frozenset({0})], [False, True])


def test_format_parse_round_trip():
    circ = _majority3()
    text = sc.format_circuit(circ)
    again = sc.parse_circuit(text)
    assert again == circ


def test_parse_circuit_rejects_garbage():
    with pytest.raises(sc.CircuitError):
        sc.parse_circuit("inputs 3\nfanin 3\ngate 1 2\nsym\n")
    with pytest.raises(sc.CircuitError):
        sc.parse_circuit("inputs x\n")


@pytest.mark.parametrize("text", [
    "inputs 3\nfanin 2\nfanin 2\nsym 1\n",
    "inputs 3\nfanin 2 3\nsym 1\n",
    "inputs 3\nfanin 2\nsym 1\nsym 1\n",
    "inputs 3\nfanin 2\nsym -1\n",
    "inputs 3\nfanin 2\ngate 0 x\nsym 1 0\n",
])
def test_parse_circuit_rejects_repeated_and_malformed_lines(text):
    with pytest.raises(sc.CircuitError, match=r"^line \d: "):
        sc.parse_circuit(text)


def test_flip_out_of_range():
    from dyncomplab.structures import DynLabError
    st = sc.sym_init(_majority3(), [False] * 3)
    with pytest.raises(DynLabError):
        sc.sym_flip(st, -1)
    with pytest.raises(DynLabError):
        sc.sym_flip(st, 3)


def _differential_circuits(rng):
    """Seeded circuits with zero gates, m = 1, repeated gates and fan-in
    1..6 among them."""
    yield sc.make_circuit(3, 2, [], [True])
    yield sc.make_circuit(1, 1, [frozenset({0})] * 3, [False, True, False, True])
    for _ in range(40):
        m = rng.randint(1, 12)
        fanin = rng.randint(1, 6)
        gates = [frozenset(rng.sample(range(m), rng.randint(1, min(fanin, m))))
                 for _ in range(rng.randint(0, 12))]
        gates += rng.sample(gates, min(len(gates), rng.randint(0, 3)))
        yield sc.make_circuit(m, fanin, gates,
                              [rng.random() < 0.5 for _ in range(len(gates) + 1)])


def test_flips_match_the_frozenset_reference():
    rng = random.Random(41)
    for circ in _differential_circuits(rng):
        st = sc.sym_init(circ, [rng.random() < 0.5 for _ in range(circ.m)])
        subsets = set(sc.counters_reference(circ, st.assignment))
        for x in range(circ.m):
            assert len(st.affected[x]) == sum(
                1 for a in subsets if x in a and a - {x} in subsets), (circ, x)
        for f in range(80):
            sc.sym_flip(st, rng.randrange(circ.m))
            assert st.activated == sum(
                all(st.assignment[i] for i in g) for g in circ.gates), (circ, f)
            if f % 7 == 0:
                assert st.counters == sc.counters_reference(circ, st.assignment)


def test_keys_stay_exact_on_wide_circuits():
    # at m = 20000 six inputs do not fit one base-(m+1) word; gates over
    # the highest inputs, some repeated, many overlapping
    m = 20000
    rng = random.Random(43)
    gates = [frozenset(rng.sample(range(m - 40, m), 6)) for _ in range(30)]
    gates += gates[:5] + [frozenset(range(m - 6, m)),
                          frozenset(range(m - 9, m - 3))] * 2
    circ = sc.make_circuit(m, 6, gates, [False] * (len(gates) + 1))
    st = sc.sym_init(circ, [rng.random() < 0.5 for _ in range(m)])
    reference = sc.counters_reference(circ, st.assignment)
    assert st.counters == reference
    inputs = sorted(set().union(*gates))
    for x in inputs:
        assert len(st.affected[x]) == sum(
            1 for a in reference if x in a and a - {x} in reference), x
    for f in range(300):
        sc.sym_flip(st, rng.choice(inputs))
        assert st.activated == sum(
            all(st.assignment[i] for i in g) for g in circ.gates), f
    assert st.counters == sc.counters_reference(circ, st.assignment)


def test_counters_is_a_copy():
    st = sc.sym_init(_majority3(), [True] * 3)
    view = st.counters
    view[frozenset()] = 99
    assert st.activated == 2 and st.counters[frozenset()] == 2


def test_init_refuses_subsets_beyond_physical_memory(monkeypatch):
    from dyncomplab import structures
    from dyncomplab.structures import DynLabError
    big = sc.make_circuit(60, 60, [frozenset(range(60))], [False, True])
    with monkeypatch.context() as patch:
        # the popcount table is the first array the enumeration allocates
        patch.setattr(sc, "_popcounts", None)
        with pytest.raises(DynLabError, match=r"1 distinct gate\(s\) of 60 "):
            sc.sym_init(big, [False] * 60)
    need = sum(sc.footprint(_majority3()).values())
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", need - 1)
    with pytest.raises(DynLabError, match=rf"need {need:,} bytes"):
        sc.sym_init(_majority3(), [False] * 3)
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY", need)
    assert sc.sym_init(_majority3(), [False] * 3).activated == 0


def test_init_counts_the_affected_rows_not_only_the_counters(monkeypatch):
    from dyncomplab import structures
    from dyncomplab.structures import DynLabError
    k = 10
    wide = sc.make_circuit(k, k, [frozenset(range(k))], [False, True])
    # one byte short of the 2^k int64 counters plus the k·2^(k-1) final
    # rows of two intp ids: a check of the counters alone would pass
    monkeypatch.setattr(structures, "PHYSICAL_MEMORY",
                        8 * 2 ** k + 16 * k * 2 ** (k - 1) - 1)
    with pytest.raises(DynLabError, match=r"largest part is 1 distinct gate"):
        sc.sym_init(wide, [True] * k)


@pytest.mark.parametrize("m, gates", [
    (12, [range(12)]),
    (1000, [range(988, 1000)]),
    (1000, [range(i, 1000, 250) for i in range(250)]),
    (20, [range(8)] * 50 + [range(4, 14), range(10, 20)]),
], ids=["one-gate", "high-inputs", "many-gates", "repeated-overlapping"])
def test_footprint_bounds_what_init_allocates(m, gates):
    import tracemalloc
    circ = sc.make_circuit(m, 12, gates, [False] * (len(gates) + 1))
    assignment = [i % 3 != 0 for i in range(m)]
    tracemalloc.start()
    try:
        st = sc.sym_init(circ, assignment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < peak <= sum(sc.footprint(circ).values())
    assert st.counters == sc.counters_reference(circ, assignment)
