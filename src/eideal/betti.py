"""Graded Betti numbers of S/I(G) via homology of independence complexes.

The (i, j) table entry is the total rank contributed by induced subgraphs on
j vertices whose independence complex has reduced homology in degree j-i-1;
regularity, projective dimension and depth read off the table support.

The homology engine works per vertex-subset with three homotopy-safe
reductions before any linear algebra:
  * an isolated vertex makes the complex a cone (all reduced homology 0);
  * a disconnected subgraph makes the complex a join, so homology is the
    shifted convolution of the components' homology (Kunneth over a field);
  * a vertex y whose neighborhood contains another vertex's neighborhood
    (N(x) subseteq N(y), x != y) can be deleted without changing homotopy
    type (elementary collapse of the pairs F <-> F + {x} among faces
    containing y).
Only irreducible cores reach boundary-matrix ranks: bitset elimination over
GF(2), fraction-free integer elimination for Q, dense elimination mod p
otherwise.  The reductions are homotopy-level, hence field-independent;
tests validate them against a reduction-free oracle on exhaustive corpora.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .comb_invariants import (forest_dp, independence_number,
                              maximal_independent_sets,
                              tree_min_maximal_independent_set)
from .graph_core import Graph, bits, component_masks, connected_components

DEFAULT_BETTI_GUARD = 18
MAX_HOMOLOGY_GROUND = 24


class SizeGuardExceeded(RuntimeError):
    """Input too large for a direct exact computation."""


def parse_field(field: str) -> tuple[str, int]:
    """Return ("q", 0) or ("fp", p) for tags like "q", "f2", "f5"."""
    if field == "q":
        return ("q", 0)
    if field.startswith("f") and field[1:].isdigit():
        p = int(field[1:])
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"field characteristic must be a prime: {field!r}")
        return ("fp", p)
    raise ValueError(f"unknown field tag {field!r}; use 'q' or 'f<p>' "
                     "for a prime p")


# ---------------------------------------------------------------------------
# Simplicial complexes and direct homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialComplex:
    """Facet representation; facets=() is the void complex, facets=(0,) the
    empty complex {emptyset}."""

    ground: int
    facets: tuple[int, ...]

    @property
    def is_void(self) -> bool:
        return len(self.facets) == 0

    def dim(self) -> int:
        if self.is_void:
            return -2
        return max(f.bit_count() for f in self.facets) - 1


def independence_complex(g: Graph) -> SimplicialComplex:
    """Facets are the maximal independent sets of g."""
    return SimplicialComplex(g.n, tuple(sorted(maximal_independent_sets(g))))


def _faces_from_facets(c: SimplicialComplex) -> set[int]:
    faces: set[int] = set()
    for facet in c.facets:
        stack = [facet]
        while stack:
            f = stack.pop()
            if f in faces:
                continue
            faces.add(f)
            sub = f
            while sub:
                low = sub & -sub
                stack.append(f ^ low)
                sub ^= low
    return faces


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


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Exact rank over Q by fraction-free Gaussian elimination."""
    if not rows or not rows[0]:
        return 0
    mat = [row[:] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv_row = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv_row is None:
            continue
        mat[rank], mat[piv_row] = mat[piv_row], mat[rank]
        piv = mat[rank][col]
        for i in range(rank + 1, nrows):
            mic = mat[i][col]
            if mic == 0 and piv == prev:
                continue
            row_i = mat[i]
            row_r = mat[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[col] = 0
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_modp(rows: list[list[int]], p: int) -> int:
    if not rows or not rows[0]:
        return 0
    mat = [[x % p for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv_row = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv_row is None:
            continue
        mat[rank], mat[piv_row] = mat[piv_row], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        row_r = [x * inv % p for x in mat[rank]]
        mat[rank] = row_r
        for i in range(rank + 1, nrows):
            f = mat[i][col]
            if f:
                row_i = mat[i]
                mat[i] = [(a - f * b) % p for a, b in zip(row_i, row_r)]
        rank += 1
        if rank == nrows:
            break
    return rank


def _homology_from_faces(faces, field: tuple[str, int]) -> dict[int, int]:
    """Reduced homology dims by degree of a face set over a parsed field.

    Includes degree -1: the empty-but-nonvoid complex has H~_{-1} = 1.
    """
    kind, p = field
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
        if kind == "fp" and p == 2:
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
            if kind == "q":
                ranks[s - 1] = _rank_bareiss(dense)
            else:
                ranks[s - 1] = _rank_modp(dense, p)

    dims: dict[int, int] = {}
    for s in by_size:
        d = s - 1
        n_d = len(by_size[s])
        boundary_out = ranks.get(d, 0)       # rank of C_d -> C_{d-1}
        boundary_in = ranks.get(d + 1, 0)    # rank of C_{d+1} -> C_d
        dim = n_d - boundary_out - boundary_in
        if dim:
            dims[d] = dim
    return dims


def reduced_homology_dims(c: SimplicialComplex, field: str = "q") -> list[int]:
    """dim H~_d for d = -1..dim(c); the void complex yields an empty list."""
    if c.ground > MAX_HOMOLOGY_GROUND:
        raise SizeGuardExceeded(
            f"ground set {c.ground} exceeds {MAX_HOMOLOGY_GROUND}")
    if c.is_void:
        return []
    faces = _faces_from_facets(c)
    dims = _homology_from_faces(faces, parse_field(field))
    return [dims.get(d, 0) for d in range(-1, c.dim() + 1)]


# ---------------------------------------------------------------------------
# Subset homology engine with reductions
# ---------------------------------------------------------------------------

class HomologyEngine:
    """Memoized reduced-homology dims of Ind(G[W]) over vertex masks W."""

    def __init__(self, g: Graph, field: str = "q"):
        self.g = g
        self.adj = g.adj
        self.field = parse_field(field)
        self.memo: dict[int, dict[int, int]] = {}

    def dims(self, w: int) -> dict[int, int]:
        """Sparse map degree -> dim H~_degree(Ind(G[W])); {} if contractible.

        W = 0 gives {-1: 1} (the empty complex).
        """
        if w == 0:
            return {-1: 1}
        cached = self.memo.get(w)
        if cached is not None:
            return cached
        result = self._compute(w)
        self.memo[w] = result
        return result

    def _compute(self, w: int) -> dict[int, int]:
        adj = self.adj
        live = w
        # Fold loop: strip dominated-neighborhood vertices; bail to a cone on
        # any isolated vertex.
        while True:
            rows = {}
            for v in bits(live):
                row = adj[v] & live
                if row == 0:
                    return {}
                rows[v] = row
            verts = list(rows)
            removed = False
            for x in verts:
                rx = rows[x]
                for y in verts:
                    if y != x and rx & ~rows[y] == 0:
                        live &= ~(1 << y)
                        removed = True
                        break
                if removed:
                    break
            if not removed:
                break
            if live in self.memo:
                return self.memo[live]
        # Split into connected components -> join convolution.
        comps = component_masks(adj, live)
        dims = self._core_dims(next(comps))
        for cm in comps:
            dims = _join_convolve(dims, self._core_dims(cm))
            if not dims:
                return {}
        return dims

    def _core_dims(self, w: int) -> dict[int, int]:
        cached = self.memo.get(w)
        if cached is not None:
            return cached
        faces = self._independent_sets(w)
        dims = _homology_from_faces(faces, self.field)
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


def _join_convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Homology of a join: H~_d(X*Y) = sum_{i+j=d-1} H~_i(X) x H~_j(Y)."""
    out: dict[int, int] = {}
    for da, ra in a.items():
        for db, rb in b.items():
            d = da + db + 1
            out[d] = out.get(d, 0) + ra * rb
    return out


# ---------------------------------------------------------------------------
# Betti tables and derived invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti numbers of S/I(G); beta_{0,0}=1 is implicit."""

    ambient_n: int
    field: str
    entries: dict[tuple[int, int], int]

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def regularity_quotient(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def projective_dimension(self) -> int:
        return max((i for (i, j) in self.entries), default=0)

    def to_json(self) -> str:
        rows = [[i, j, r] for (i, j), r in sorted(self.entries.items())]
        return json.dumps({"n": self.ambient_n, "field": self.field,
                           "entries": rows})

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        obj = json.loads(text)
        entries = {(int(i), int(j)): int(r) for i, j, r in obj["entries"]}
        return cls(int(obj["n"]), obj["field"], entries)


def betti_table(g: Graph, field: str = "q",
                max_vertices: int = DEFAULT_BETTI_GUARD) -> BettiTable:
    """Exact table via the subset-sum over induced independence complexes:
    beta_{i,j}(S/I) = sum over |W|=j of dim H~_{j-i-1}(Ind(G[W]))."""
    if g.n > max_vertices:
        raise SizeGuardExceeded(
            f"betti_table guard: {g.n} vertices > {max_vertices}")
    engine = HomologyEngine(g, field)
    entries: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << g.n):
        dims = engine.dims(w)
        if not dims:
            continue
        j = w.bit_count()
        for d, rank in dims.items():
            i = j - d - 1
            if i >= 1:
                key = (i, j)
                entries[key] = entries.get(key, 0) + rank
    return BettiTable(g.n, field, entries)


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
    """reg(I) = 2, i.e. no induced subgraph contributes homology in degree
    >= 1; vacuously true for edgeless graphs."""
    if g.n > max_vertices:
        raise SizeGuardExceeded(
            f"linear resolution guard: {g.n} vertices > {max_vertices}")
    if g.edge_count == 0:
        return True
    engine = HomologyEngine(g, field)
    for w in range(1, 1 << g.n):
        dims = engine.dims(w)
        if any(d >= 1 and r for d, r in dims.items()):
            return False
    return True


def has_linear_presentation(g: Graph, field: str = "q",
                            max_vertices: int = DEFAULT_BETTI_GUARD) -> bool:
    """beta_{2,j}(S/I) = 0 for j >= 4: no j-subset carries H~_{j-3}."""
    if g.n > max_vertices:
        raise SizeGuardExceeded(
            f"linear presentation guard: {g.n} vertices > {max_vertices}")
    if g.edge_count == 0:
        return True
    engine = HomologyEngine(g, field)
    for w in range(1, 1 << g.n):
        j = w.bit_count()
        if j < 4:
            continue
        if engine.dims(w).get(j - 3, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Componentwise regularity / projective dimension with censoring
# ---------------------------------------------------------------------------

def forest_pd(g: Graph) -> int:
    """pd(S/I) of a forest: vertex count minus the independent domination
    number (smallest maximal independent set).

    Promoted fast path: forests are sequentially Cohen-Macaulay, where depth
    equals 1 + the smallest facet dimension of the independence complex; the
    test suite validates the formula against the subset-homology table on
    exhaustive and random forests before anything relies on it.
    """
    return g.n - tree_min_maximal_independent_set(g)


@dataclass(frozen=True)
class ComponentwiseResult:
    """Sum of a per-component invariant with explicit censoring: the
    components in `censored` add nothing to `value`."""

    value: int
    total_components: int
    censored: tuple[Graph, ...]

    @property
    def censored_components(self) -> int:
        return len(self.censored)


def reg_pd_componentwise(g: Graph, field: str = "q",
                         betti_guard: int = DEFAULT_BETTI_GUARD, parts=None
                         ) -> tuple[ComponentwiseResult, ComponentwiseResult]:
    """reg*(I) = reg(I) - 1 and pd(S/I) summed over components, with one
    censoring record shared by both results.

    A tree component (connected, so edge_count == n - 1) takes the induced
    matching identity and the forest pd formula; any other component on at
    most betti_guard vertices takes both from one exact Betti table; the
    rest are censored and add to neither sum."""
    if parts is None:
        parts = connected_components(g)
    reg = pd = 0
    censored = []
    for comp in parts.component_subgraphs:
        if comp.edge_count == comp.n - 1:
            nu, mmis = forest_dp(comp)
            reg += nu
            pd += comp.n - mmis
        elif comp.n <= betti_guard:
            table = betti_table(comp, field, betti_guard)
            reg += table.regularity_quotient()
            pd += table.projective_dimension()
        else:
            censored.append(comp)
    censored = tuple(censored)
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
