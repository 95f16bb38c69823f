"""Procedural first-order maintenance engines for the covered-nodes parity.

The maintained query: is the number of nodes with in-degree between 1 and
k that have a coloured in-neighbour odd?

For a node set C, the agreeing set A(C) holds the nodes x with
1 <= indeg(x) <= k, edges from all of C and no coloured in-neighbour
outside C.  The paper stores, per node w and per non-empty index set I
into w's ordered in-neighbour list, one bit P_I(w): the parity of
A(N_I(w)).  That bit depends only on the node set N_I(w), so the engine
keeps one parity table `par`, keyed by the bitmask of C, with an entry
(always True) exactly when |A(C)| is odd.  `store_pairs()` derives the
paper's (w, imask) pairs from it on demand; bit i of imask means
position i+1 of w's in-neighbour list, ordered by node id.

A node x lies in A(C) exactly for the C with r ∩ in(x) ⊆ C ⊆ in(x), so
every change moves few entries, and no global recount ever happens:

- an edge change at w0 moves only w0's own contributions, at most
  2·2^k entries;
- a colour change of v moves only the contributions of v's
  out-neighbours, at most 2^k each, and flips the answer by the parity
  of A({v}).

`apply` runs that update, in O(2^k·(1 + outdeg)) per change.
`apply_reference` runs the paper's literal parallel update instead: it
rebuilds every stored bit from the old ones, and finds each old parity
through a witness node.  Both read and write the same state, so one
engine can be driven down either path.  The graph is kept as per-node
bitmasks of in- and out-neighbours.
"""

from __future__ import annotations

from . import oracle, structures
from .structures import (GRAPH_SCHEMA, INSERT, Change, Structure,
                         ValidationError, check_fits, check_tuple,
                         coloured_graph)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParityExistsEngine:
    """Shared core of the bounded-degree engines."""

    # the graph as a structure, with the masks it was built from; a class
    # default, so that neither set-up nor `apply` does work for it
    _structure: tuple[tuple, Structure | None] = ((), None)

    def __init__(self, n: int, k: int):
        if n < 0:
            raise ValidationError("domain size must be non-negative")
        if k < 0:
            raise ValidationError("degree bound must be non-negative")
        # in_mask and out_mask take 8 bytes a slot each; the sum is compared
        # here first, as building check_fits' report on every set-up would
        # cost a fifth of an engine's set-up time
        if 16 * n > structures.PHYSICAL_MEMORY:
            check_fits(f"the neighbour masks of an engine at n={n}",
                       {"in_mask": 8 * n, "out_mask": 8 * n})
        self.n = n
        self.k = k
        self.in_mask = [0] * n
        self.out_mask = [0] * n
        self.r_mask = 0
        self.par: dict[int, bool] = {}
        self.ans = False

    # ------------------------------------------------------------ views

    def edges(self) -> set[tuple[int, int]]:
        return {(v, w) for w in range(self.n) for v in _bits(self.in_mask[w])}

    def coloured(self) -> set[int]:
        return set(_bits(self.r_mask))

    def graph_structure(self) -> Structure:
        """The graph as a structure, built again only after an effective
        change."""
        masks = (self.r_mask, *self.in_mask)
        if self._structure[0] != masks:
            self._structure = (masks, coloured_graph(
                self.n, self.edges(), self.coloured()))
        return self._structure[1]

    @property
    def input(self) -> Structure:
        """The graph as a structure: the input the changes act on."""
        return self.graph_structure()

    def store_pairs(self) -> set[tuple[int, int]]:
        """The paper's relation P: the (w, imask) whose node set C agrees
        with w and has an odd agreeing set."""
        return {(w, imask) for w, imask, c_mask in self._index_sets(
            self.in_mask, self.r_mask) if c_mask in self.par}

    def answer(self) -> bool:
        return self.ans

    def audit(self) -> list:
        return oracle.audit_fo_state(self)

    # ------------------------------------------------------- local tests

    def _nodes_at(self, in_w: int, imask: int) -> int:
        c_mask = 0
        for i, v in enumerate(_bits(in_w)):   # ascending node order
            if imask >> i & 1:
                c_mask |= 1 << v
        return c_mask

    def _index_sets(self, in_masks, r_mask):
        """(w, imask, C) for every node w of bounded in-degree and every
        non-empty index set whose node set C agrees with w."""
        for w, in_w in enumerate(in_masks):
            d = in_w.bit_count()
            if d == 0 or d > self.k:
                continue
            for imask in range(1, 1 << d):
                c_mask = self._nodes_at(in_w, imask)
                if not r_mask & in_w & ~c_mask:
                    yield w, imask, c_mask

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

    # ------------------------------------------------------------ update

    def _validate(self, c: Change) -> None:
        arity = GRAPH_SCHEMA.get(c.relation)
        if arity is None:
            raise ValidationError(f"engine change must touch E or R, "
                                  f"not {c.relation!r}")
        check_tuple(c.relation, arity, c.args, self.n)

    def apply(self, c: Change) -> bool:
        """Apply one change; True when it was skipped as non-effective."""
        return self._route(c, self._apply_colour, self._apply_edge)

    def apply_reference(self, c: Change) -> bool:
        """`apply` by the paper's literal parallel update."""
        return self._route(c, self._reference_colour, self._reference_edge)

    def _route(self, c: Change, colour, edge) -> bool:
        self._validate(c)
        if c.relation == "R":
            (v,) = c.args
            effective = (c.op == INSERT) != bool(self.r_mask >> v & 1)
            if effective:
                colour(v)
        else:
            v, w = c.args
            effective = (c.op == INSERT) != bool(self.in_mask[w] >> v & 1)
            if effective:
                edge(v, w)
        return not effective

    def _toggle(self, c_mask: int) -> None:
        """Add or remove one node in A(C): flip the parity of C."""
        if self.par.pop(c_mask, False) is False:
            self.par[c_mask] = True

    def _toggle_range(self, lo: int, hi: int) -> None:
        """Toggle every non-empty C with lo ⊆ C ⊆ hi."""
        free = hi & ~lo
        sub = free
        while True:
            if lo | sub:
                self._toggle(lo | sub)
            if not sub:
                return
            sub = (sub - 1) & free

    def _toggle_node(self, in_x: int, r_mask: int) -> None:
        """Add or remove a node with in-list in_x in every A(C) it
        belongs to under colouring r_mask."""
        d = in_x.bit_count()
        if 1 <= d <= self.k:
            self._toggle_range(r_mask & in_x, in_x)

    def _apply_colour(self, v: int) -> None:
        bit = 1 << v
        # covered status flips exactly for the nodes agreeing with {v}
        self.ans ^= bit in self.par
        # an out-neighbour x of v leaves or joins exactly the A(C) with
        # (r \ {v}) ∩ in(x) ⊆ C ⊆ in(x) \ {v}
        r_rest = self.r_mask & ~bit
        for x in _bits(self.out_mask[v]):
            in_x = self.in_mask[x]
            if in_x.bit_count() <= self.k:
                hi = in_x & ~bit
                self._toggle_range(r_rest & hi, hi)
        self.r_mask ^= bit

    def _apply_edge(self, v: int, w0: int) -> None:
        old_in = self.in_mask[w0]
        self._toggle_node(old_in, self.r_mask)
        self._toggle_node(old_in ^ 1 << v, self.r_mask)
        self._commit_edge(v, w0)

    def _commit_edge(self, v: int, w0: int) -> None:
        old_in = self.in_mask[w0]
        new_in = old_in ^ 1 << v
        self.ans ^= self._covered(old_in, self.r_mask)
        self.ans ^= self._covered(new_in, self.r_mask)
        self.in_mask[w0] = new_in
        self.out_mask[v] ^= 1 << w0

    # ------------------------------------------- literal parallel update

    def _old_parity(self, c_mask: int, cache: dict[int, bool]) -> bool:
        """Parity of the old agreeing set of C, via any witness's stored
        bit; no witness means the set is empty."""
        hit = cache.get(c_mask)
        if hit is not None:
            return hit
        parity = False
        for x in range(self.n):
            if self._agrees(self.in_mask[x], c_mask, self.r_mask):
                # the witness's bit P_I(x), I the positions of C in in(x)
                parity = c_mask in self.par
                break
        cache[c_mask] = parity
        return parity

    def _rebuild(self, new_in, new_r, new_parity) -> dict[int, bool]:
        """The new table: every (w, I) of the new graph, evaluated at once."""
        return {c_mask: True for _, _, c_mask in self._index_sets(new_in, new_r)
                if new_parity(c_mask)}

    def _reference_colour(self, v: int) -> None:
        new_r = self.r_mask ^ (1 << v)
        cache: dict[int, bool] = {}

        def new_parity(c_mask: int) -> bool:
            # recolouring v splits/merges the agreeing sets of C and
            # C∪{v}; for C containing v the set is unchanged
            p = self._old_parity(c_mask, cache)
            if not c_mask >> v & 1:
                p ^= self._old_parity(c_mask | 1 << v, cache)
            return p

        new_par = self._rebuild(self.in_mask, new_r, new_parity)
        # covered status flips exactly for nodes agreeing with {v}
        self.ans ^= self._old_parity(1 << v, cache)
        self.r_mask = new_r
        self.par = new_par

    def _reference_edge(self, v: int, w0: int) -> None:
        new_in = list(self.in_mask)
        new_in[w0] ^= 1 << v
        cache: dict[int, bool] = {}

        def new_parity(c_mask: int) -> bool:
            # only w0's own agreement with any C can change
            p = self._old_parity(c_mask, cache)
            p ^= self._agrees(self.in_mask[w0], c_mask, self.r_mask)
            p ^= self._agrees(new_in[w0], c_mask, self.r_mask)
            return p

        self.par = self._rebuild(new_in, self.r_mask, new_parity)
        self._commit_edge(v, w0)


class FoDegKState(ParityExistsEngine):
    """Unary-auxiliary engine: one node set per index set I ⊆ {1..k}."""


class FoLogNState(ParityExistsEngine):
    """Binary-auxiliary engine: bound d = floor(log2 n), index sets read
    from the bit encoding of the first component."""

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("fo_logn needs a non-empty domain")
        super().__init__(n, n.bit_length() - 1)

    def p_relation(self) -> set[tuple[int, int]]:
        """(v, w) pairs with w in P indexed by the bit-set of v; the
        imask of positions equals v's own binary encoding."""
        return {(imask, w) for (w, imask) in self.store_pairs()}
