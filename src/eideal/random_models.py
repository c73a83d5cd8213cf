"""Seeded samplers for G(n,p) and Galton-Watson trees, plus p(n) schedules.

Every sampler is a pure function of (parameters, seed): substream seeds are
derived by hashing, so parallel trials are order-independent and replays are
bit-identical on every platform.

A seed's stream is ``np.random.PCG64(substream_seed(*parts))``, which
``rng_for`` builds with numpy's own constructor.  Loops over many short
streams (the Galton-Watson trees of ``gw_limit_estimate``) take them from
``rngs_for`` instead: one reused Generator whose PCG64 is put, seed by seed,
in the exact state that constructor starts from, derived for a block of
seeds at once.  The streams are the same; a test pins the states.  A
Galton-Watson tree is a plain ``(parents, censored)`` pair, with no Graph.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph_core import (Graph, complement, graph_from_pairs, pair_endpoints,
                         pair_index, relabel_live)

# JSON parameter names of each schedule kind; "lambda" is stored as `lam`.
SCHEDULE_PARAMS = {"sparse": ("lambda",), "power": ("c", "alpha"),
                   "complement_power": ("c", "alpha"),
                   "window_sparse": ("lambda",), "window_dense": ("lambda",),
                   "constant": ("p",)}


@dataclass(frozen=True)
class ParamSchedule:
    """Symbolic edge-probability schedule p(n).

    kinds:
      sparse(lam):            p = min(lam/n, 1)
      power(c, alpha):        p = c * n**-alpha
      complement_power(c, alpha): p = 1 - c * n**-alpha
      window_sparse(lam):     p = sqrt(lam) / n**2   (so (n(1-p))^4 p^2 -> lam, p -> 0)
      window_dense(lam):      p = 1 - lam**0.25 / n  (so (n(1-p))^4 p^2 -> lam, p -> 1)
      constant(p):            p fixed
    """

    kind: str
    lam: float | None = None
    c: float | None = None
    alpha: float | None = None
    p: float | None = None

    @classmethod
    def sparse(cls, lam: float) -> "ParamSchedule":
        return cls("sparse", lam=lam)

    @classmethod
    def power(cls, c: float, alpha: float) -> "ParamSchedule":
        return cls("power", c=c, alpha=alpha)

    @classmethod
    def complement_power(cls, c: float, alpha: float) -> "ParamSchedule":
        return cls("complement_power", c=c, alpha=alpha)

    @classmethod
    def window_sparse(cls, lam: float) -> "ParamSchedule":
        return cls("window_sparse", lam=lam)

    @classmethod
    def window_dense(cls, lam: float) -> "ParamSchedule":
        return cls("window_dense", lam=lam)

    @classmethod
    def constant(cls, p: float) -> "ParamSchedule":
        return cls("constant", p=p)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                **{name: getattr(self, "lam" if name == "lambda" else name)
                   for name in SCHEDULE_PARAMS.get(self.kind, ())}}

    @classmethod
    def from_json(cls, obj: dict) -> "ParamSchedule":
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object with a 'kind', got {obj!r}")
        kind = obj.get("kind")
        if kind not in SCHEDULE_PARAMS:
            raise ValueError(f"unknown schedule kind {kind!r}; "
                             f"expected one of {tuple(SCHEDULE_PARAMS)}")
        unknown = sorted(obj.keys() - {"kind", *SCHEDULE_PARAMS[kind]})
        if unknown:
            raise ValueError(f"schedule kind {kind!r} has no parameter "
                             f"{unknown[0]!r}; expected "
                             f"{SCHEDULE_PARAMS[kind]}")
        params = {}
        for name in SCHEDULE_PARAMS[kind]:
            x = obj.get(name)
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or not math.isfinite(x)):
                raise ValueError(f"schedule kind {kind!r} needs a finite "
                                 f"number {name!r}, got {x!r}")
            if name == "lambda" and x < 0:
                # The window schedules take roots of lambda, and gw_limit
                # draws Poisson(lambda) offspring.
                raise ValueError(f"schedule kind {kind!r} needs 'lambda' "
                                 f">= 0, got {x!r}")
            params["lam" if name == "lambda" else name] = float(x)
        return cls(kind, **params)

    def describe(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.to_json().items())


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def schedule_p(s: ParamSchedule, n: int) -> float:
    """Evaluate the schedule at graph size n, clamped to [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s.kind == "sparse":
        return _clamp01(s.lam / n)
    if s.kind in ("power", "complement_power"):
        try:
            x = float(s.c * n ** -s.alpha)
        except OverflowError:  # n**-alpha past float range: take the limit
            x = math.inf if s.c > 0 else -math.inf
        return _clamp01(x if s.kind == "power" else 1.0 - x)
    if s.kind == "window_sparse":
        return _clamp01(math.sqrt(s.lam) / n ** 2)
    if s.kind == "window_dense":
        return _clamp01(1.0 - s.lam ** 0.25 / n)
    return _clamp01(s.p)


def check_seed(seed) -> int:
    """``seed`` if it is an int in [-2**127, 2**127), the range of the 16
    signed bytes that substream_seed hashes; ValueError otherwise.  type()
    is int, not isinstance: JSON's true is a Python int."""
    if type(seed) is not int or not -(1 << 127) <= seed < 1 << 127:
        raise ValueError(f"an integer seed in [-2**127, 2**127) is "
                         f"required, got {seed!r}")
    return seed


def substream_seed(*parts) -> int:
    """Stable 64-bit substream seed from a mixed tuple of ints/strings."""
    return int.from_bytes(_hasher(parts).digest(), "little")


def substream_seeds(*prefix, count: int):
    """Yield ``substream_seed(*prefix, t)`` for t in range(count), the
    prefix hashed once: each t hashes on a copy of that blake2b state."""
    base = _hasher(prefix)
    for t in range(count):
        h = base.copy()
        h.update(b"i" + t.to_bytes(16, "little", signed=True))
        yield int.from_bytes(h.digest(), "little")


def _hasher(parts):
    """A blake2b state that has hashed the encoding of each of ``parts``."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode())
        elif isinstance(part, float) and not part.is_integer():
            h.update(b"f" + part.hex().encode())
        else:
            try:
                h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
            except OverflowError:
                raise ValueError(f"an int part in [-2**127, 2**127) is "
                                 f"required, got {part!r}") from None
    return h


def rng_for(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(substream_seed(*parts)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), its pool
# of 4 words, and the 128-bit LCG multiplier of PCG64 (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Seeds hashed per array pass: large enough to amortize the pass's fixed
# cost of about 60 numpy calls, and a constant so that the memory in flight
# does not grow with the number of seeds.
_SEED_BLOCK = 256


def _hash_consts(init: int, mult: int, count: int) -> list:
    """The (xor, multiply) constant pairs of ``count`` successive hashmix
    steps: they depend on no data, so every seed of a block shares them."""
    pairs = []
    for _ in range(count):
        nxt = init * mult & 0xFFFFFFFF
        pairs.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return pairs


# mix_entropy runs 4 + 4*3 hashmix steps, generate_state(4, uint64) 8.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_states(seeds: np.ndarray):
    """Yield the (state, inc) that ``np.random.PCG64(s)`` starts from, for
    each s of the uint64 array ``seeds``.

    SeedSequence(s) reads s as its little-endian 32-bit words, at most two
    here, and pads its pool with zero words, which hash as a zero high word
    does; mix_entropy and generate_state(4, uint64) then run word-wise over
    the whole block.  pcg64_set_seed's two LCG steps run per seed in
    Python ints.
    """
    consts = iter(_MIX_CONSTS)
    zero = np.zeros_like(seeds, dtype=np.uint32)
    words = [(seeds & 0xFFFFFFFF).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32)]
    words += [zero] * (_POOL - len(words))
    pool = [_hashmix(w, *next(consts)) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], *next(consts)))
    out = [_hashmix(pool[i % _POOL], *c).astype(np.uint64)
           for i, c in enumerate(_OUT_CONSTS)]
    # generate_state's uint64 words, little-endian pairs of uint32 words.
    s_hi, s_lo, i_hi, i_lo = ((out[k] | out[k + 1] << np.uint64(32)).tolist()
                              for k in range(0, 2 * _POOL, 2))
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        # State 0 stepped once is inc; add the initial state, step again.
        inc = (c << 65 | d << 1 | 1) & _MASK128
        yield ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc


def rngs_for(seeds):
    """Yield one Generator per seed s of the iterable ``seeds``, in order,
    each time the same object, its PCG64 in the state ``np.random.PCG64(s)``
    starts from: it draws exactly what ``np.random.Generator(
    np.random.PCG64(s))`` would.  Use each before taking the next.

    Seeds must be ints in [0, 2**64), a ``substream_seed`` output; so
    ``rng_for(*parts)``'s stream comes from ``rngs_for([substream_seed(
    *parts)])``.  They are hashed ``_SEED_BLOCK`` at a time.
    """
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, _SEED_BLOCK)):
        for s in block:
            if type(s) is not int or not 0 <= s < 1 << 64:
                raise ValueError(f"a PCG64 seed in [0, 2**64) is required, "
                                 f"got {s!r}")
        for state, inc in _pcg64_states(np.array(block, dtype=np.uint64)):
            bit_gen.state = {"bit_generator": "PCG64",
                             "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            yield rng


_SPARSE_GNP_THRESHOLD = 0.05


@dataclass(frozen=True, eq=False)
class GnpDraw:
    """One seeded G(n, p) draw before any row is built: endpoint arrays
    ``us``, ``vs``, u < v, in lexicographic pair order, of the drawn edges,
    or of the drawn non-edges when ``complemented``.  Sparse trials read
    ``live_graph``, which builds no row for a vertex with no drawn edge."""

    n: int
    us: np.ndarray
    vs: np.ndarray
    complemented: bool = False

    def graph(self) -> Graph:
        g = graph_from_pairs(self.n, self.us, self.vs)
        return complement(g) if self.complemented else g

    def live_graph(self) -> Graph:
        """The drawn graph on the k vertices that carry a drawn edge,
        relabelled 0..k-1 in increasing order; ``graph()`` if complemented,
        or if k = n."""
        deg = np.bincount(np.concatenate((self.us, self.vs)), minlength=self.n)
        if self.complemented or deg.all():
            return self.graph()
        return graph_from_pairs(*relabel_live(deg, self.us, self.vs))

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The drawn edges as endpoint arrays, in lexicographic pair order."""
        if not self.complemented:
            return self.us, self.vs
        n = self.n
        kept = np.ones(n * (n - 1) // 2, dtype=bool)
        kept[pair_index(n, self.us, self.vs)] = False
        return pair_endpoints(n, kept.nonzero()[0])


_NO_PAIRS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def draw_gnp(n: int, p: float, seed: int) -> GnpDraw:
    """The random draw of ``sample_gnp(n, p, seed)``, rows not yet built."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    rng = rng_for(seed)
    m = n * (n - 1) // 2
    if m == 0 or p == 0.0:
        return GnpDraw(n, *_NO_PAIRS)
    if p == 1.0:
        return GnpDraw(n, *_NO_PAIRS, complemented=True)
    if p < _SPARSE_GNP_THRESHOLD:
        chunks = []
        pos = -1
        while True:
            expect = max(16, int((m - pos) * p * 1.3) + 16)
            steps = rng.geometric(p, size=expect)
            idx = pos + np.cumsum(steps)
            keep = idx[idx < m]
            chunks.append(keep)
            if len(keep) < len(idx):
                break
            pos = int(idx[-1])
        return GnpDraw(n, *pair_endpoints(n, np.concatenate(chunks)))
    flat = rng.random(m) < p
    if m - np.count_nonzero(flat) <= 2 * n:
        return GnpDraw(n, *pair_endpoints(n, (~flat).nonzero()[0]),
                       complemented=True)
    return GnpDraw(n, *pair_endpoints(n, flat.nonzero()[0]))


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample: each of the n(n-1)/2 pairs kept with probability p.

    Sparse p uses geometric index skipping, dense p one Bernoulli draw per
    pair in lexicographic pair order; the two paths realize the same
    distribution, not the same stream.  ``draw_gnp`` lists the drawn pairs
    as a ``GnpDraw`` (a dense draw that drops at most 2n pairs lists those,
    complemented), and ``GnpDraw.graph`` builds the rows; callers that read
    a draw's pairs (the dense critical-window trials) see the same stream.
    """
    return draw_gnp(n, p, seed).graph()


def sample_gw_tree(lam: float, cap: int, seed: int) -> tuple:
    """``grow_gw_tree`` on the stream ``rng_for(seed)``."""
    return grow_gw_tree(lam, cap, rng_for(seed))


_GW_BLOCK = 8  # one Poisson call grows most trees at rate 0.5 (mean size 2)


def grow_gw_tree(lam: float, cap: int, rng: np.random.Generator) -> tuple:
    """(parents, censored): a breadth-first Galton-Watson tree with
    Poisson(lam) offspring, drawn from ``rng``, as its parent list:
    ``parents[i]`` is the parent of vertex i (below i), -1 for the root 0.

    Vertex v, numbered in the order drawn (parents first), has the v-th
    Poisson value of the stream as its offspring count, read in blocks of
    ``_GW_BLOCK`` (``Generator.poisson`` draws one value after another, so
    any block size grows the same tree).  Growth stops at extinction or
    when a child would exceed ``cap`` vertices; then the tree keeps ``cap``
    vertices and is censored, for consumers to exclude (and count).
    """
    if not lam >= 0:  # NaN fails this too
        raise ValueError("offspring rate must be >= 0")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    parents = [-1]
    v = 0
    while True:
        for k in rng.poisson(lam, size=_GW_BLOCK).tolist():
            if len(parents) + k > cap:
                parents += [v] * (cap - len(parents))
                return tuple(parents), True
            parents += [v] * k
            v += 1
            if v == len(parents):
                return tuple(parents), False
