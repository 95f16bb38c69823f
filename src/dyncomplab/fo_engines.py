"""Procedural first-order maintenance engines for the covered-nodes parity.

The maintained query: is the number of nodes with in-degree between 1 and
k that have a coloured in-neighbour odd?  The engine stores, per node w
and per non-empty index set I into w's ordered in-neighbour list, one bit
P_I(w): the parity of the node set that "agrees" with N_I(w) (edges from
all of it, no coloured in-neighbour outside it, bounded in-degree).

Every update combines stored bits with locally checkable conditions; no
global recount ever happens (the test-suite instruments this).  The
graph is kept as per-node bitmasks, the store as a set of (w, imask)
pairs where bit i of imask means position i+1 of w's in-neighbour list,
ordered by node id.
"""

from __future__ import annotations

from .structures import (Change, DELETE, INSERT, Structure, ValidationError,
                         coloured_graph)


def index_set_of(v: int, n: int) -> frozenset[int]:
    """Positions of the 1-bits of v, least significant bit = position 1."""
    if not 0 <= v < n:
        raise ValidationError(f"node {v} out of range for domain {n}")
    return frozenset(i + 1 for i in range(v.bit_length()) if v >> i & 1)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IndexedNeighbours(set):
    """Set of nodes selected by an index set; valid=False flags an
    unusable (w, I) combination."""

    valid: bool = True


def _invalid() -> IndexedNeighbours:
    out = IndexedNeighbours()
    out.valid = False
    return out


class ParityExistsEngine:
    """Shared core of the bounded-degree engines."""

    def __init__(self, n: int, k: int):
        if n < 0:
            raise ValidationError("domain size must be non-negative")
        if k < 0:
            raise ValidationError("degree bound must be non-negative")
        self.n = n
        self.k = k
        self.in_mask = [0] * n
        self.out_mask = [0] * n
        self.r_mask = 0
        self.store: set[tuple[int, int]] = set()
        self.ans = False

    # ------------------------------------------------------------ views

    def edges(self) -> set[tuple[int, int]]:
        return {(v, w) for w in range(self.n) for v in _bits(self.in_mask[w])}

    def coloured(self) -> set[int]:
        return set(_bits(self.r_mask))

    def graph_structure(self) -> Structure:
        return coloured_graph(self.n, self.edges(), self.coloured())

    def store_pairs(self) -> set[tuple[int, int]]:
        return set(self.store)

    def answer(self) -> bool:
        return self.ans

    # ------------------------------------------------------- local tests

    def _positions_mask(self, in_w: int, c_mask: int) -> int:
        imask = 0
        for i, v in enumerate(_bits(in_w)):   # ascending node order
            if c_mask >> v & 1:
                imask |= 1 << i
        return imask

    def _nodes_at(self, in_w: int, imask: int) -> int:
        c_mask = 0
        for i, v in enumerate(_bits(in_w)):
            if imask >> i & 1:
                c_mask |= 1 << v
        return c_mask

    def _agrees(self, in_x: int, c_mask: int, r_mask: int) -> bool:
        """x (with in-list in_x) has edges from all of C, bounded active
        in-degree, and no coloured in-neighbour outside C."""
        d = in_x.bit_count()
        if d == 0 or d > self.k:
            return False
        if c_mask & ~in_x:
            return False
        return not (r_mask & in_x & ~c_mask)

    def _covered(self, in_x: int, r_mask: int) -> bool:
        d = in_x.bit_count()
        return 1 <= d <= self.k and bool(r_mask & in_x)

    def _old_parity(self, c_mask: int, cache: dict[int, bool]) -> bool:
        """Parity of the old agreeing set of C, via any witness's stored
        bit; no witness means the set is empty."""
        hit = cache.get(c_mask)
        if hit is not None:
            return hit
        parity = False
        for x in range(self.n):
            in_x = self.in_mask[x]
            if self._agrees(in_x, c_mask, self.r_mask):
                imask = self._positions_mask(in_x, c_mask)
                parity = (x, imask) in self.store
                break
        cache[c_mask] = parity
        return parity

    # ------------------------------------------------------------ update

    def _validate(self, c: Change) -> None:
        if c.relation == "E":
            want = 2
        elif c.relation == "R":
            want = 1
        else:
            raise ValidationError(f"engine change must touch E or R, "
                                  f"not {c.relation!r}")
        if len(c.args) != want:
            raise ValidationError(f"{c.relation} change needs {want} argument(s)")
        for a in c.args:
            if not 0 <= a < self.n:
                raise ValidationError(f"node {a} out of range")
        if c.op not in (INSERT, DELETE):
            raise ValidationError(f"unknown change op {c.op!r}")

    def apply(self, c: Change) -> "ParityExistsEngine":
        self._validate(c)
        if c.relation == "R":
            (v,) = c.args
            present = bool(self.r_mask >> v & 1)
            if (c.op == INSERT) == present:
                return self              # non-effective: no-op
            self._apply_colour(v)
        else:
            v, w = c.args
            present = bool(self.in_mask[w] >> v & 1)
            if (c.op == INSERT) == present:
                return self
            self._apply_edge(v, w, insert=(c.op == INSERT))
        return self

    def _rebuild(self, new_in, new_r, new_parity) -> set[tuple[int, int]]:
        new_store: set[tuple[int, int]] = set()
        for w in range(self.n):
            in_w = new_in[w]
            d = in_w.bit_count()
            if d == 0 or d > self.k:
                continue
            for imask in range(1, 1 << d):
                c_mask = self._nodes_at(in_w, imask)
                if new_r & in_w & ~c_mask:
                    continue
                if new_parity(c_mask):
                    new_store.add((w, imask))
        return new_store

    def _apply_colour(self, v: int) -> None:
        new_r = self.r_mask ^ (1 << v)
        cache: dict[int, bool] = {}

        def new_parity(c_mask: int) -> bool:
            # recolouring v splits/merges the agreeing sets of C and
            # C∪{v}; for C containing v the set is unchanged
            p = self._old_parity(c_mask, cache)
            if not c_mask >> v & 1:
                p ^= self._old_parity(c_mask | 1 << v, cache)
            return p

        new_store = self._rebuild(self.in_mask, new_r, new_parity)
        # covered status flips exactly for nodes agreeing with {v}
        self.ans ^= self._old_parity(1 << v, cache)
        self.r_mask = new_r
        self.store = new_store

    def _apply_edge(self, v: int, w0: int, insert: bool) -> None:
        new_in = list(self.in_mask)
        new_in[w0] ^= 1 << v
        cache: dict[int, bool] = {}

        def new_parity(c_mask: int) -> bool:
            # only w0's own agreement with any C can change
            p = self._old_parity(c_mask, cache)
            p ^= self._agrees(self.in_mask[w0], c_mask, self.r_mask)
            p ^= self._agrees(new_in[w0], c_mask, self.r_mask)
            return p

        new_store = self._rebuild(new_in, self.r_mask, new_parity)
        self.ans ^= self._covered(self.in_mask[w0], self.r_mask)
        self.ans ^= self._covered(new_in[w0], self.r_mask)
        self.in_mask = new_in
        if insert:
            self.out_mask[v] |= 1 << w0
        else:
            self.out_mask[v] &= ~(1 << w0)
        self.store = new_store


class FoDegKState(ParityExistsEngine):
    """Unary-auxiliary engine: one node set per index set I ⊆ {1..k}."""

    def p_set(self, index_set: frozenset[int] | set[int]) -> set[int]:
        imask = 0
        for i in index_set:
            if not 1 <= i <= self.k:
                raise ValidationError(f"index {i} outside 1..{self.k}")
            imask |= 1 << (i - 1)
        if imask == 0:
            raise ValidationError("index set must be non-empty")
        return {w for (w, im) in self.store if im == imask}


class FoLogNState(ParityExistsEngine):
    """Binary-auxiliary engine: bound d = floor(log2 n), index sets read
    from the bit encoding of the first component."""

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("fo_logn needs a non-empty domain")
        super().__init__(n, n.bit_length() - 1)

    @property
    def d(self) -> int:
        return self.k

    def p_relation(self) -> set[tuple[int, int]]:
        """(v, w) pairs with w in P indexed by the bit-set of v; the
        imask of positions equals v's own binary encoding."""
        return {(imask, w) for (w, imask) in self.store}


def fo_degk_init(n: int, k: int) -> FoDegKState:
    return FoDegKState(n, k)


def fo_logn_init(n: int) -> FoLogNState:
    return FoLogNState(n)


def indexed_in_neighbours(state: ParityExistsEngine, w: int,
                          index_set) -> IndexedNeighbours:
    """Nodes at the positions of index_set in w's ordered in-neighbour
    list; an unusable combination yields an empty result flagged invalid."""
    if not 0 <= w < state.n:
        raise ValidationError(f"node {w} out of range")
    idx = set(index_set)
    in_w = state.in_mask[w]
    d = in_w.bit_count()
    if not idx or d == 0 or d > state.k or max(idx) > d or min(idx) < 1:
        return _invalid()
    nbrs = list(_bits(in_w))
    return IndexedNeighbours(nbrs[i - 1] for i in idx)
