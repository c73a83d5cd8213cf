"""Graded Betti numbers of S/I(G) via homology of independence complexes.

By Hochster's formula the (i, j) table entry is the total rank contributed
by induced subgraphs on j vertices whose independence complex has reduced
homology in degree j-i-1; regularity, projective dimension and depth read
off the table support.

Three homotopy-safe reductions decide most vertex subsets W before any
linear algebra:
  * an isolated vertex makes the complex a cone (all reduced homology 0);
  * a vertex y whose neighborhood contains another vertex's neighborhood
    (N(x) subseteq N(y), x != y) can be deleted without changing the
    homotopy type (Engstrom's fold lemma);
  * a disconnected subgraph makes the complex a join, so homology is the
    shifted convolution of the components' homology (Kunneth over a field).

Every homology question goes through one lattice scan
(_irreducible_targets): the cone-free subsets are generated in numpy, each
gets its fold target W - y from one vectorized rule (fold_vertex, shared
with the exhaustive audit), and pointer jumping runs every fold chain to an
irreducible subset or to a cone.  Homology runs only on the distinct
irreducible targets, through HomologyEngine: a table is counts by (|W|,
target) times the targets' ranks (_scan_entries), and linear_flags reads
targets by size until linear presentation breaks.  A target that is a
cluster graph, c disjoint cliques K_{k_i}, is a join of c point sets and
takes {c - 1: prod(k_i - 1)} over any field, which decides most targets.
The other targets split into connected cores whose face homology needs
boundary-matrix ranks: bitset elimination over GF(2), else one fraction-free
dense elimination (_rank_dense).  Over Q the GF(2) dims are a certificate:
they are the Q dims unless two consecutive degrees d, d + 1 >= 1 both carry
GF(2) homology, the only trace 2-torsion in integral homology can leave
(universal coefficients); only then does dense elimination run over Q.  The
engine keeps one memo by vertex mask, for targets and cores alike, and takes
a field as its characteristic p, 0 for Q.  The reductions are
homotopy-level, hence field-independent; tests validate them against a
reduction-free oracle on exhaustive corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb_invariants import forest_fold, independence_number
from .graph_core import (Graph, bits, connected_components,
                         induced_subgraph_mask, walk_components)

DEFAULT_BETTI_GUARD = 18
# The lattice scan's int64 submasks hold 63 vertices, whatever the guard.
MAX_SCAN_VERTICES = 63


class SizeGuardExceeded(RuntimeError):
    """Input too large for a direct exact computation."""


def parse_field(field: str) -> int:
    """The characteristic of a field tag: 0 for "q", p for "f<p>"."""
    if field == "q":
        return 0
    if field.startswith("f") and field[1:].isdigit():
        p = int(field[1:])
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"field characteristic must be a prime: {field!r}")
        return p
    raise ValueError(f"unknown field tag {field!r}; use 'q' or 'f<p>' "
                     "for a prime p")


# ---------------------------------------------------------------------------
# Direct homology of a face set
# ---------------------------------------------------------------------------

def _rank_gf2(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            b = (col & -col).bit_length() - 1
            piv = pivots.get(b)
            if piv is None:
                pivots[b] = col
                rank += 1
                break
            col ^= piv
    return rank


def _rank_dense(rows: list[list[int]], p: int) -> int:
    """Rank over Q (p = 0) or GF(p) by fraction-free elimination: a row
    below the pivot becomes piv * row - mic * pivot_row, then is divided
    exactly by the previous pivot over Q (Bareiss; so a row with mic = 0
    is skipped only if piv equals it) or reduced mod p."""
    mat = [[x % p for x in row] for row in rows] if p else list(rows)
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv_row = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv_row is None:
            continue
        mat[rank], mat[piv_row] = mat[piv_row], mat[rank]
        row_r = mat[rank]
        piv = row_r[col]
        for i in range(rank + 1, nrows):
            mic = mat[i][col]
            if mic == 0 and (p or piv == prev):
                continue
            if p:
                mat[i] = [(piv * a - mic * b) % p
                          for a, b in zip(mat[i], row_r)]
            else:
                mat[i] = [(piv * a - mic * b) // prev
                          for a, b in zip(mat[i], row_r)]
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def _certifies_q(dims_f2: dict[int, int]) -> bool:
    """True if these GF(2) dims are also the Q dims: no two consecutive
    degrees d, d + 1 >= 1 both carry GF(2) homology.

    By universal coefficients a 2-primary summand of H~_d(Z) adds one GF(2)
    dimension in each of degrees d and d + 1 and none over Q, odd torsion
    changes neither count, and H~_0(Z) is free.  Without such a pair H~(Z)
    has no 2-torsion, so the counts agree."""
    return not any(d >= 1 and d + 1 in dims_f2 for d in dims_f2)


def _homology_from_faces(faces, p: int) -> dict[int, int]:
    """Reduced homology dims by degree of a face set over the field of
    characteristic p (0 for Q).

    Includes degree -1: the empty-but-nonvoid complex has H~_{-1} = 1.
    Over Q the GF(2) dims are returned when they certify themselves
    (_certifies_q); only otherwise does the dense elimination run.
    """
    if p == 0:
        dims = _homology_from_faces(faces, 2)
        if _certifies_q(dims):
            return dims
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    if not by_size:
        return {}
    for group in by_size.values():
        group.sort()
    top = max(by_size)
    index = {s: {f: i for i, f in enumerate(by_size[s])} for s in by_size}

    ranks: dict[int, int] = {}
    for s in range(1, top + 1):
        cols_faces = by_size.get(s, [])
        rows_idx = index.get(s - 1, {})
        if p == 2:
            columns = []
            for f in cols_faces:
                col = 0
                sub = f
                while sub:
                    low = sub & -sub
                    col |= 1 << rows_idx[f ^ low]
                    sub ^= low
                columns.append(col)
            ranks[s - 1] = _rank_gf2(columns)
        else:
            nrows = len(by_size.get(s - 1, []))
            dense = [[0] * len(cols_faces) for _ in range(nrows)]
            for ci, f in enumerate(cols_faces):
                sign = 1
                sub = f
                while sub:
                    low = sub & -sub
                    dense[rows_idx[f ^ low]][ci] = sign
                    sign = -sign
                    sub ^= low
            ranks[s - 1] = _rank_dense(dense, p)

    dims: dict[int, int] = {}
    for s, group in by_size.items():
        # dim C_d minus the ranks of C_d -> C_{d-1} and C_{d+1} -> C_d
        dim = len(group) - ranks.get(s - 1, 0) - ranks.get(s, 0)
        if dim:
            dims[s - 1] = dim
    return dims


# ---------------------------------------------------------------------------
# Homology of irreducible subsets
# ---------------------------------------------------------------------------

class HomologyEngine:
    """Reduced-homology dims of Ind(G[W]) over irreducible vertex masks W:
    cluster graphs in closed form, other W by a component split and the
    face homology of each connected core, over the field of characteristic
    ``p``.  ``memo`` maps every W answered, target or core, to its dims; a
    connected target is its own core, so the two agree."""

    def __init__(self, g: Graph, field: str = "q"):
        self.adj = g.adj
        self.p = parse_field(field)
        self.memo: dict[int, dict[int, int]] = {}

    def irreducible_dims(self, w: int) -> dict[int, int]:
        """dims of a nonempty W with no isolated vertex and no fold.

        A cluster graph, c disjoint cliques K_{k_i}, is a join of c point
        sets, {c - 1: prod(k_i - 1)} over any field.  Any other W is the
        join convolution of its connected components' homology."""
        dims = self.memo.get(w)
        if dims is not None:
            return dims
        dims = _cluster_dims(self.adj, w)
        if dims is None:
            first, *comps = walk_components(self.adj, w)[0]
            dims = self._core_dims(first)
            for cm in comps:
                if not dims:
                    break
                dims = _join_convolve(dims, self._core_dims(cm))
        self.memo[w] = dims
        return dims

    def _core_dims(self, w: int) -> dict[int, int]:
        dims = self.memo.get(w)
        if dims is None:
            dims = _homology_from_faces(self._independent_sets(w), self.p)
            dims.pop(-1, None)  # cores are nonempty complexes
            self.memo[w] = dims
        return dims

    def _independent_sets(self, w: int) -> list[int]:
        adj = self.adj
        out = [0]
        # stack of (chosen, available)
        stack = [(0, w)]
        while stack:
            chosen, avail = stack.pop()
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail ^= low
                stack.append((chosen | low, avail & ~adj[v]))
            if chosen:
                out.append(chosen)
        return out


def _cluster_dims(adj, w: int) -> dict[int, int] | None:
    """{c - 1: prod(k_i - 1)} if G[W] is c disjoint cliques K_{k_i}, else
    None: each vertex's closed neighborhood in W must be its whole clique.
    A zero product is kept: W has no isolated vertex by contract."""
    c = 0
    product = 1
    rest = w
    while rest:
        low = rest & -rest
        clique = adj[low.bit_length() - 1] & w | low
        rest ^= clique
        sub = clique ^ low
        while sub:
            bit = sub & -sub
            if adj[bit.bit_length() - 1] & w | bit != clique:
                return None
            sub ^= bit
        c += 1
        product *= clique.bit_count() - 1
    return {c - 1: product}


def _join_convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Homology of a join: H~_d(X*Y) = sum_{i+j=d-1} H~_i(X) x H~_j(Y)."""
    out: dict[int, int] = {}
    for da, ra in a.items():
        for db, rb in b.items():
            d = da + db + 1
            out[d] = out.get(d, 0) + ra * rb
    return out


def fold_vertex(rows, live) -> np.ndarray:
    """The vertex that the fold rule deletes from each live set: the y of
    the first ordered pair (x, y) of distinct live vertices with
    N(x) & live subseteq N(y), or -1 if there is none.

    ``rows[v]`` is v's neighbor row: a Python int, or a numpy array with a
    row per entry; ``live`` is a mask or an array of masks.  Answers hold
    for live sets with no isolated vertex.  On those, adjacent x and y never
    fold (y is in N(x) but not in N(y)), and neither do x and y with no
    common neighbor.  With Python-int rows such a pair is skipped at once;
    with array rows it is masked out of the entries that rule it out."""
    n = len(rows)
    out = np.full(np.broadcast(live, rows[0]).shape, -1, dtype=np.int8)
    # Pairs go last to first, so the first pair that folds writes last.
    for x in reversed(range(n)):
        for y in reversed(range(n)):
            if y == x:
                continue
            can = ((rows[x] & rows[y]) != 0) & ((rows[x] >> y & 1) == 0)
            if can is False:
                continue
            both = 1 << x | 1 << y
            out[((live & (both | (rows[x] & ~rows[y]))) == both) & can] = y
    return out


# ---------------------------------------------------------------------------
# Betti tables and derived invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """The graded Betti numbers of S/I(G) as {(i, j): beta_{i,j}} at the
    positions Hochster's sum reaches, every nonzero one among them;
    beta_{0,0} = 1 is implicit.  Regularity, projective dimension and
    linearity read off the positions."""

    entries: dict[tuple[int, int], int]

    def regularity_quotient(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def projective_dimension(self) -> int:
        return max((i for (i, j) in self.entries), default=0)

    def linear_flags(self) -> tuple[bool, bool]:
        """(linear resolution, linear presentation); see linearity."""
        return linearity(self.entries.items())


def _engine(g: Graph, field: str, max_vertices: int) -> HomologyEngine:
    """A HomologyEngine over g, once g passes the size guard, which never
    exceeds MAX_SCAN_VERTICES."""
    limit = min(max_vertices, MAX_SCAN_VERTICES)
    if g.n > limit:
        raise SizeGuardExceeded(f"Betti scan guard: {g.n} vertices > {limit}")
    return HomologyEngine(g, field)


def linearity(positions) -> tuple[bool, bool]:
    """(linear resolution, linear presentation) from ((i, j), rank) pairs
    of nonzero beta_{i,j}(S/I).

    The one linearity rule: a nonzero beta_{i,j} with j - i >= 2 breaks
    linear resolution (reg(I) > 2), and one with i = 2 and j >= 4 breaks
    linear presentation (a first syzygy of degree above 3).  The second
    implies the first, so the walk stops there."""
    lr = True
    for (i, j), _ in positions:
        if i == 2 and j >= 4:
            return False, False
        if j - i >= 2:
            lr = False
    return lr, True


def betti_table(g: Graph, field: str = "q",
                max_vertices: int = DEFAULT_BETTI_GUARD) -> BettiTable:
    """Exact table: Hochster's sum over the vertex subsets, by one lattice
    scan (see induced_betti_tables)."""
    return induced_betti_tables(g, ((1 << g.n) - 1,), field, max_vertices)[0]


def induced_betti_tables(g: Graph, grounds, field: str = "q",
                         max_vertices: int = DEFAULT_BETTI_GUARD
                         ) -> list[BettiTable]:
    """Exact tables of the induced subgraphs G[U], one per vertex mask U in
    `grounds`, from one lattice scan over the submasks of their union
    (_irreducible_targets) and one HomologyEngine for all (_scan_entries)."""
    engine = _engine(g, field, max_vertices)
    union = 0
    for u in grounds:
        union |= u
    ws, root = _irreducible_targets(engine.adj, union)
    return [BettiTable(entries)
            for entries in _scan_entries(engine, ws, root, grounds)]


def _scan_entries(engine: HomologyEngine, ws, root, grounds):
    """Yield each ground's table entries from the scan (ws, root): C_U @ R
    by Hochster, R[t, e] being target t's rank in degree e - 1, at i = j - e;
    C_U @ P, P the 0/1 keys of R, marks each (i, j) reached, rank 0 too."""
    n = len(engine.adj)
    targets, counts = _count_matrices(ws, root, grounds, n)
    # R | P.  Sum over W of count * rank <= sum over W of the faces of
    # Ind(G[W]) <= 3^n (each vertex in the face, in W only, or out) < 2^63
    # for n <= 39, past any scan that fits in memory: int64 is exact.
    rp = np.zeros((len(targets), 2 * (n + 1)), dtype=np.int64)
    for t, r in enumerate(targets.tolist()):
        for d, rank in engine.irreducible_dims(ws.item(r)).items():
            rp[t, d + 1], rp[t, n + d + 2] = rank, 1
    for c in counts:
        beta = c @ rp
        js, es = np.nonzero(beta[:, n + 1:])
        yield dict(zip(zip((js - es).tolist(), js.tolist()),
                       beta[js, es].tolist()))


def _count_matrices(ws: np.ndarray, root: np.ndarray, grounds, n: int
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """(targets, [C_U for U in grounds]): the scan's irreducible targets, by
    index in ws, and each U's (n + 1) x T counts of its W by (|W|, target)."""
    targets = np.flatnonzero(root == np.arange(len(ws)))  # root[r] = r
    alive = root < len(ws)
    live, t = ws[alive], len(targets)
    keys = (np.bitwise_count(live).astype(np.int64) * t
            + np.searchsorted(targets, root[alive]))
    return targets, [np.bincount(keys[(live & ~u) == 0],
                                 minlength=(n + 1) * t).reshape(n + 1, t)
                     for u in grounds]


def _irreducible_targets(adj, union: int) -> tuple[np.ndarray, np.ndarray]:
    """(ws, root): the cone-free submasks W of `union` in increasing order,
    and for each the index in ws of the irreducible subset its fold chain
    ends at, or len(ws) if the chain ends at a cone.

    Every W is classified in numpy before any homology runs:
      * a cone (G[W] has an isolated vertex) adds nothing and is never
        generated (_cone_free_submasks);
      * a W with a fold points at W - y (fold_vertex); a W - y that is a
        cone is not in the array, so W adds nothing either;
      * pointer jumping runs every fold chain to its end, an irreducible
        subset whose homology W shares."""
    ws = _cone_free_submasks(adj, union)
    m = len(ws)
    if m == 0:
        return ws, ws
    y = fold_vertex(adj, ws)
    folds = np.flatnonzero(y >= 0)
    target = ws[folds] ^ (1 << y[folds].astype(np.int64))
    at = np.searchsorted(ws, target)
    # step[i]: where W = ws[i] points, itself if irreducible; index m
    # stands for a cone and points at itself.
    step = np.arange(m + 1)
    step[folds] = np.where(ws[np.minimum(at, m - 1)] == target, at, m)
    while True:
        jumped = step[step]
        if np.array_equal(jumped, step):
            return ws, step[:m]
        step = jumped


def _cone_free_submasks(adj, u: int) -> np.ndarray:
    """The nonempty submasks W of u with no isolated vertex in G[W], in
    increasing order.  Vertices of u join from the lowest, each doubling
    the array; once v and all its neighbors in u have joined, the sets
    holding v and none of them are dropped for good."""
    closes: dict[int, list[int]] = {}
    for v in bits(u):
        closes.setdefault(max(v, (adj[v] & u).bit_length() - 1), []).append(v)
    ws = np.zeros(1, dtype=np.int64)
    for v in bits(u):
        ws = np.concatenate((ws, ws | 1 << v))
        for c in closes.get(v, ()):
            ws = ws[(ws & (1 << c | adj[c])) != 1 << c]
    return ws[1:]


def linear_flags(g: Graph, field: str = "q",
                 max_vertices: int = DEFAULT_BETTI_GUARD) -> tuple[bool, bool]:
    """(linear resolution, linear presentation) of S/I(G), vacuous for no
    edges, by linearity's rule on the scan's targets by increasing size: one
    with homology in a degree d >= 1 breaks resolution (j - i = d + 1), and
    presentation too, ending the read, if a W of size d + 3 (i = 2) has it."""
    engine = _engine(g, field, max_vertices)
    full = (1 << g.n) - 1
    ws, root = _irreducible_targets(engine.adj, full)
    targets, (counts,) = _count_matrices(ws, root, (full,), g.n)
    lr = True
    sizes = np.bitwise_count(ws[targets]).tolist()
    # Python's sort is stable (ties by index) and maps no numpy sort code.
    for t in sorted(range(len(sizes)), key=sizes.__getitem__):
        for d in engine.irreducible_dims(ws.item(targets[t])):
            if d >= 1:
                lr = False
                if counts[d + 3, t]:  # |target| >= 2d + 2 >= d + 3
                    return False, False
    return lr, True


@dataclass(frozen=True)
class InvariantBundle:
    regularity_quotient: int
    regularity_ideal: int
    pd_quotient: int
    depth_quotient: int
    krull_dim: int


def invariants(g: Graph, field: str = "q",
               max_vertices: int = DEFAULT_BETTI_GUARD) -> InvariantBundle:
    table = betti_table(g, field, max_vertices)
    reg_q = table.regularity_quotient()
    pd_q = table.projective_dimension()
    return InvariantBundle(
        regularity_quotient=reg_q,
        regularity_ideal=reg_q + 1,
        pd_quotient=pd_q,
        depth_quotient=g.n - pd_q,
        krull_dim=independence_number(g),
    )


def has_linear_resolution(g: Graph, field: str = "q",
                          max_vertices: int = DEFAULT_BETTI_GUARD) -> bool:
    """reg(I) = 2; see linear_flags."""
    return linear_flags(g, field, max_vertices)[0]


def has_linear_presentation(g: Graph, field: str = "q",
                            max_vertices: int = DEFAULT_BETTI_GUARD) -> bool:
    """beta_{2,j}(S/I) = 0 for j >= 4; see linear_flags."""
    return linear_flags(g, field, max_vertices)[1]


# ---------------------------------------------------------------------------
# Componentwise regularity / projective dimension with censoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentwiseResult:
    """Sum of a per-component invariant with explicit censoring: the
    components whose vertex masks are in `censored` add nothing to `value`."""

    value: int
    total_components: int
    censored: tuple[int, ...]

    @property
    def censored_components(self) -> int:
        return len(self.censored)


def reg_pd_componentwise(g: Graph, field: str = "q",
                         betti_guard: int = DEFAULT_BETTI_GUARD, parts=None
                         ) -> tuple[ComponentwiseResult, ComponentwiseResult]:
    """reg*(I) = reg(I) - 1 and pd(S/I) summed over components, with one
    censoring record shared by both results.

    The tree components take both values from one fold of the forest
    recorded in ``parts``, unrelabeled: reg* is the induced matching number
    and pd the vertex count minus the smallest maximal independent set (a
    forest is sequentially Cohen-Macaulay, so depth is 1 + the smallest
    facet dimension of its independence complex).  A cyclic component on at
    most betti_guard vertices is relabeled and takes both values from one
    exact Betti table; the rest are censored, kept as masks, and add to
    neither sum."""
    if parts is None:
        parts = connected_components(g)
    reg, mmis = forest_fold(parts.parent)
    pd = parts.trees.bit_count() - mmis
    cyclic = [mask for mask in parts.masks if not mask & parts.trees]
    censored = tuple(mask for mask in cyclic if mask.bit_count() > betti_guard)
    for mask in cyclic:
        if mask.bit_count() <= betti_guard:
            table = betti_table(induced_subgraph_mask(g, mask), field,
                                betti_guard)
            reg += table.regularity_quotient()
            pd += table.projective_dimension()
    return (ComponentwiseResult(reg, len(parts), censored),
            ComponentwiseResult(pd, len(parts), censored))


def regularity_componentwise(g: Graph, field: str = "q",
                             betti_guard: int = DEFAULT_BETTI_GUARD,
                             parts=None) -> ComponentwiseResult:
    """reg*(I) summed over components; see reg_pd_componentwise."""
    return reg_pd_componentwise(g, field, betti_guard, parts)[0]


def pd_componentwise(g: Graph, field: str = "q",
                     betti_guard: int = DEFAULT_BETTI_GUARD,
                     parts=None) -> ComponentwiseResult:
    """pd(S/I) summed over components; see reg_pd_componentwise."""
    return reg_pd_componentwise(g, field, betti_guard, parts)[1]
