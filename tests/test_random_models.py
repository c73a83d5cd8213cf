import hashlib
import math

import numpy as np
import pytest

from eideal.comb_invariants import is_forest
from eideal.graph_core import (Graph, build_graph, complement,
                               complete_graph, edge_mask, empty_graph,
                               graph_from_pairs)
from eideal.random_models import (_SEED_BLOCK, _SPARSE_GNP_THRESHOLD,
                                  ParamSchedule, draw_gnp, rng_for, rngs_for,
                                  sample_gnp, sample_gw_tree, schedule_p,
                                  substream_seed, substream_seeds)


def test_schedule_values():
    assert schedule_p(ParamSchedule.window_dense(16), 100) == pytest.approx(0.98)
    assert schedule_p(ParamSchedule.sparse(1), 1000) == pytest.approx(0.001)
    assert schedule_p(ParamSchedule.power(1, 1.75), 10 ** 4) == pytest.approx(1e-7)
    assert schedule_p(ParamSchedule.constant(0.3), 17) == 0.3
    assert schedule_p(ParamSchedule.sparse(5), 3) == 1.0
    assert schedule_p(ParamSchedule.complement_power(1, 0.5), 4) == 0.5


def test_window_schedules_hit_the_scaling_limit():
    for lam in (0.5, 4.0, 16.0):
        for sched in (ParamSchedule.window_sparse(lam),
                      ParamSchedule.window_dense(lam)):
            n = 10 ** 5
            p = schedule_p(sched, n)
            assert (n * (1 - p)) ** 4 * p * p == pytest.approx(lam, rel=1e-2)
    assert schedule_p(ParamSchedule.window_sparse(4), 10 ** 3) < 0.05
    assert schedule_p(ParamSchedule.window_dense(4), 10 ** 3) > 0.95


def test_schedule_json_round_trip():
    cases = [ParamSchedule.sparse(0.5), ParamSchedule.power(2, 1.2),
             ParamSchedule.complement_power(1, 0.4),
             ParamSchedule.window_sparse(4), ParamSchedule.window_dense(16),
             ParamSchedule.constant(0.25)]
    for s in cases:
        assert ParamSchedule.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        ParamSchedule.from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        ParamSchedule.from_json({"kind": "sparse"})


def test_substream_seed_stability():
    # Frozen values guard cross-platform reproducibility of every experiment.
    assert substream_seed(1, 2, 3) == substream_seed(1, 2, 3)
    assert substream_seed(1, 2) != substream_seed(2, 1)
    assert substream_seed("a", 1) != substream_seed("a1")
    assert substream_seed(0) == 13379413122819086221


def test_substream_parts_beyond_the_hash_range_are_value_errors():
    # The 16 signed bytes each int part is hashed as; the bounds still hash.
    substream_seed(2 ** 127 - 1, -2 ** 127)
    for part in (2 ** 127, -2 ** 127 - 1, 2 ** 128, 1e40):
        with pytest.raises(ValueError, match=r"\[-2\*\*127, 2\*\*127\)"):
            substream_seed(3, part)
    with pytest.raises(ValueError, match=r"\[-2\*\*127, 2\*\*127\)"):
        sample_gnp(5, 0.5, 2 ** 128)


@pytest.mark.parametrize("seed", [0, -1, 2 ** 127 - 1, -2 ** 127])
def test_prefix_hashed_seeds_equal_full_hashes(seed):
    # gw_limit_estimate's tree seeds: the (seed, "gw") prefix hashed once.
    seeds = list(substream_seeds(seed, "gw", count=300))
    assert seeds == [substream_seed(seed, "gw", t) for t in range(300)]
    assert list(map(substream_seed, seeds)) == [
        substream_seed(substream_seed(seed, "gw", t)) for t in range(300)]
    assert list(substream_seeds(seed, 0.5, "x", count=3)) == [
        substream_seed(seed, 0.5, "x", t) for t in range(3)]


def test_prefix_hashed_seeds_refuse_parts_beyond_the_hash_range():
    with pytest.raises(ValueError, match=r"\[-2\*\*127, 2\*\*127\)"):
        next(substream_seeds(2 ** 127, "gw", count=1))


def test_gnp_extremes():
    assert sample_gnp(10, 0.0, seed=5) == empty_graph(10)
    assert sample_gnp(10, 1.0, seed=5) == complete_graph(10)


def test_gnp_determinism():
    a = sample_gnp(40, 0.2, seed=999)
    b = sample_gnp(40, 0.2, seed=999)
    assert a == b
    c = sample_gnp(40, 0.2, seed=1000)
    assert a != c


def _packed_gnp(n, p, seed):
    """Reference dense-path build: pack the full bool matrix of one draw."""
    flat = rng_for(seed).random(n * (n - 1) // 2) < p
    mat = np.zeros((n, n), dtype=bool)
    mat[np.triu_indices(n, k=1)] = flat
    mat |= mat.T
    packed = np.packbits(mat, axis=1, bitorder="little")
    return Graph(n, tuple(int.from_bytes(packed[v].tobytes(), "little")
                          for v in range(n)))


def test_gnp_dense_builds_match_packed_reference():
    # Both forms of a dense draw reproduce the packed matrix of the same
    # draw; the cutoff between them is 2n non-edges, and a draw below it
    # lists its non-edges, complemented: the complement's edges.
    sides = set()
    for n in (5, 60, 400):
        for p in (0.06, 0.5, 0.9, 0.995, 0.9999):
            for seed in range(3 if n == 400 else 12):
                g = sample_gnp(n, p, seed)
                assert g == _packed_gnp(n, p, seed), (n, p, seed)
                listed = n * (n - 1) // 2 - g.edge_count <= 2 * n
                draw = draw_gnp(n, p, seed)
                assert draw.complemented == listed
                if listed:
                    h = graph_from_pairs(n, draw.us, draw.vs)
                    assert h == complement(g), (n, p, seed)
                sides.add(listed)
    assert sides == {True, False}


# sha256 of the edge mask, as little-endian bytes, of seeded draws on each
# path: geometric skipping, listed non-edges (at most 2n), listed dense edges.
# Any change to the sampled stream changes these.
STREAM_PINS = {
    (200, 0.01, 7):
        "c4c99cec581fc2a3aa40d39f698731ec5da7342d430c3f64e790d9d2e850a572",
    (2000, 0.001, 5):
        "39ffb90590bf2d7aabf147619fb665041297dc9c09c8c1fce220edf46469471c",
    (400, 0.995, 11):
        "7434caec7f4356658bda0ff79f50c157c292485d1f1470874946b6c9bbf73d75",
    (60, 0.99, 5):
        "bba7d14d7a27a24925ba2a710987e25a4f416a63bade7f1a19bab7af73facec8",
    (60, 0.5, 2):
        "e4188ee8833e8e7a7ed33f3df625e370664a583a6dc60d2091145d9535688ef4",
    (400, 0.9, 1):
        "8b1b0d85f3c462e9f129e99d8d4e391d45d0d085118868751cdbe39d0d0c8bbc",
}


def test_gnp_stream_pins():
    forms = set()
    for (n, p, seed), digest in STREAM_PINS.items():
        draw = draw_gnp(n, p, seed)
        forms.add("non_edges" if draw.complemented else
                  "sparse" if p < _SPARSE_GNP_THRESHOLD else "dense")
        m = n * (n - 1) // 2
        raw = edge_mask(sample_gnp(n, p, seed)).to_bytes((m + 7) // 8,
                                                         "little")
        assert hashlib.sha256(raw).hexdigest() == digest, (n, p, seed)
    assert forms == {"sparse", "non_edges", "dense"}


def test_gnp_symmetry_no_loops():
    g = sample_gnp(30, 0.4, seed=3)
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in range(g.n):
            assert (g.adj[v] >> u & 1) == (g.adj[u] >> v & 1)


def test_gnp_edge_count_statistics_dense_path():
    # Binomial mean/variance at n=30, p=0.5: mean 217.5, sd ~ 10.4.
    trials = 10 ** 4
    counts = [sample_gnp(30, 0.5, seed=substream_seed(42, t)).edge_count
              for t in range(trials)]
    m = 30 * 29 // 2
    mean = sum(counts) / trials
    se = math.sqrt(m * 0.25 / trials)
    assert abs(mean - m * 0.5) < 4 * se
    var = np.var(counts, ddof=1)
    assert 0.8 * m * 0.25 < var < 1.2 * m * 0.25


def test_gnp_edge_count_statistics_sparse_path():
    # p below the sparse threshold exercises geometric skipping.
    trials = 10 ** 4
    n, p = 200, 0.01
    m = n * (n - 1) // 2
    counts = [sample_gnp(n, p, seed=substream_seed(7, t)).edge_count
              for t in range(trials)]
    mean = sum(counts) / trials
    se = math.sqrt(m * p * (1 - p) / trials)
    assert abs(mean - m * p) < 4 * se
    var = np.var(counts, ddof=1)
    assert 0.8 * m * p * (1 - p) < var < 1.2 * m * p * (1 - p)


def test_gw_extremes():
    parents, censored = sample_gw_tree(0.0, cap=10, seed=1)
    assert len(parents) == 1 and not censored
    parents, censored = sample_gw_tree(10.0, cap=1, seed=2)
    assert censored == (len(parents) == 1 and True)
    # With rate 10 the root draws a child almost surely; sampled seeds where
    # it does must censor at cap 1.
    censored = [sample_gw_tree(10.0, cap=1, seed=k)[1] for k in range(50)]
    assert all(censored)


def test_gw_trees_are_trees():
    for seed in range(200):
        parents, censored = sample_gw_tree(0.9, cap=500, seed=seed)
        if not censored:
            tree = build_graph(len(parents), enumerate(parents[1:], 1))
            assert is_forest(tree)
            assert tree.edge_count == tree.n - 1


def test_gw_subcritical_mean_size():
    # Subcritical expected size 1/(1-lam) = 2 at lam = 0.5.
    trials = 10 ** 5
    sizes = []
    for t in range(trials):
        parents, censored = sample_gw_tree(0.5, cap=100000,
                                           seed=substream_seed(13, t))
        assert not censored
        sizes.append(len(parents))
    mean = sum(sizes) / trials
    sd = np.std(sizes, ddof=1)
    assert abs(mean - 2.0) < 3 * sd / math.sqrt(trials)


def test_gw_censor_fraction_subcritical():
    # Subcritical trees have exponential size tails, so cap 1e5 censors
    # essentially nothing.  (At the critical rate 1.0 the tail is ~k^-3/2
    # and the censor fraction sits near 2.5e-3: strictly subcritical only.)
    trials = 20000
    for lam in (0.5, 0.9):
        censored = sum(
            sample_gw_tree(lam, cap=100000,
                           seed=substream_seed(99, lam, t))[1]
            for t in range(trials))
        assert censored / trials < 1e-3


EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63,
              2 ** 64 - 1]


def test_bulk_seeding_reaches_numpys_pcg64_states():
    rng = np.random.Generator(np.random.PCG64(20240521))
    seeds = EDGE_SEEDS + rng.integers(0, 2 ** 64, size=10 ** 4,
                                      dtype=np.uint64).tolist()
    assert len(seeds) > 2 * _SEED_BLOCK
    taken = 0
    for s, bulk in zip(seeds, rngs_for(seeds), strict=True):
        assert bulk.bit_generator.state == np.random.PCG64(s).state, s
        taken += 1
    assert taken == len(seeds)


def test_bulk_seeding_crosses_a_block_boundary():
    # The last seed of one block and the first of the next, and a block
    # that ends the input part-full.
    seeds = [substream_seed(5, t) for t in range(2 * _SEED_BLOCK + 3)]
    states = [r.bit_generator.state["state"] for r in rngs_for(seeds)]
    assert states == [np.random.PCG64(s).state["state"] for s in seeds]


def _draws(rng):
    """A 32-bit draw first, so a stale half-word would show, then the
    draws the samplers make, then 32-bit words to an odd count of 5."""
    return (rng.integers(0, 1 << 31, size=3, dtype=np.uint32).tolist(),
            rng.poisson(0.8, size=5).tolist(), rng.random(4).tolist(),
            rng.geometric(0.01, size=4).tolist(),
            rng.integers(0, 1 << 31, size=2, dtype=np.uint32).tolist())


def test_reseeded_draws_equal_fresh_generators():
    # Each seed's draws leave a half-word buffered (has_uint32 1) in the
    # reused bit generator; the next seed must start without it.
    seeds = EDGE_SEEDS + [substream_seed(77, t) for t in range(300)]
    bulk = [(_draws(r), r.bit_generator.state["has_uint32"])
            for r in rngs_for(seeds)]
    fresh = [(_draws(np.random.Generator(np.random.PCG64(s))), 1)
             for s in seeds]
    assert bulk == fresh
    assert [_draws(rng_for(9, t)) for t in range(5)] == [
        _draws(r) for r in rngs_for(substream_seed(9, t) for t in range(5))]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 100, 1.0, "1", None])
def test_bulk_seeding_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        next(rngs_for([3, seed]))


# sha256 of repr((parents, censored)) of sample_gw_tree(lam, cap, seed) over
# GW_PIN_SEEDS, by (lam, cap), from the generation-by-generation grower.
# Rate 12 takes numpy's PTRS Poisson branch, and every cap-1 tree with a
# child, every cap-3 tree with more than 2 descendants and the supercritical
# trees at cap 10**5 are censored.
GW_PIN_SEEDS = (0, 1, 2, -5, 2 ** 127 - 1)
GW_STREAM_PINS = {
    (0, 1):
        "5b711bb3e01af631ab10e522f426efb469817dab7cfbbd3bd15106c56970818f",
    (0, 3):
        "5b711bb3e01af631ab10e522f426efb469817dab7cfbbd3bd15106c56970818f",
    (0, 10 ** 5):
        "5b711bb3e01af631ab10e522f426efb469817dab7cfbbd3bd15106c56970818f",
    (0.5, 1):
        "060d3765b698e9ca0b28956b2caa908b0ed97a9920fddf90e928bedaed03bb17",
    (0.5, 3):
        "c8d0b13422c1a0e6fadda8e8591ae5c39e9bfa89c6c6b103c04947276a4aebb2",
    (0.5, 10 ** 5):
        "eaaed31764b12580bdf0df5393f12692dc53344ed5e21ff9aa375898d86b1a32",
    (1, 1):
        "060d3765b698e9ca0b28956b2caa908b0ed97a9920fddf90e928bedaed03bb17",
    (1, 3):
        "78a6f1f7556f9248af619b3070b53d43cd2bd0afbe6cceb2b3b69c319c7a55dc",
    (1, 10 ** 5):
        "e52636b92e788a0f65e1f29ff330cb1384073d1e566411529c40291f42f118b6",
    (2.5, 1):
        "985ec524b8ae20860c2bad7f907dc0a4403315067927d3ec518fb0c913cd1025",
    (2.5, 3):
        "892efe442cb4ff466c00f92606f8780c63ec99f8fcce546ae97516f59c321025",
    (2.5, 10 ** 5):
        "e7158713ef3c4e737f9540e989c7eb458547311ed1ae60030ab7cb32c5ab1fef",
    (12, 1):
        "985ec524b8ae20860c2bad7f907dc0a4403315067927d3ec518fb0c913cd1025",
    (12, 3):
        "7c78e1dd9acfe2da16524db942d1b48f7a7570126aabac698b71986b38f30a28",
    (12, 10 ** 5):
        "623b62074c17d3fa53227a61a58b716b0e148bb6329414a7cf5a4f6b0758bbb5",
}


def test_gw_stream_pins():
    for (lam, cap), digest in GW_STREAM_PINS.items():
        h = hashlib.sha256()
        for seed in GW_PIN_SEEDS:
            parents, censored = sample_gw_tree(lam, cap, seed)
            h.update(repr((parents, censored)).encode())
        assert h.hexdigest() == digest, (lam, cap)


def _grow_by_generations(lam, cap, rng):
    """Reference grower: one Poisson draw per vertex of each generation, a
    generation at a time, children appended in frontier order."""
    parents = [-1]
    frontier = [0]
    while frontier:
        offspring = rng.poisson(lam, size=len(frontier)).tolist()
        next_frontier = []
        for v, k in zip(frontier, offspring):
            for _ in range(k):
                if len(parents) >= cap:
                    return tuple(parents), True
                next_frontier.append(len(parents))
                parents.append(v)
        frontier = next_frontier
    return tuple(parents), False


def test_gw_trees_equal_the_generation_by_generation_grower():
    # 2,400 seeded trees over rates on both sides of 1 and of numpy's PTRS
    # switch at 10, and caps that censor at the root, mid-tree and never.
    censored = 0
    for lam in (0.0, 0.3, 0.5, 1.0, 2.5, 12.0):
        for cap in (1, 3, 50, 10 ** 4):
            for t in range(100):
                seed = substream_seed(2024, lam, cap, t)
                tree = sample_gw_tree(lam, cap, seed)
                expected = _grow_by_generations(lam, cap, rng_for(seed))
                assert tree == expected, (lam, cap, t)
                censored += tree[1]
    assert censored > 500


def test_gw_determinism():
    a = sample_gw_tree(0.8, cap=1000, seed=123)
    b = sample_gw_tree(0.8, cap=1000, seed=123)
    assert a == b


def test_param_validation():
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        sample_gw_tree(-1, cap=5, seed=0)
    with pytest.raises(ValueError):
        sample_gw_tree(1, cap=0, seed=0)


def test_gw_sampler_rejects_nan_rate():
    # nan passes `lam < 0`; the sampler's own check must still refuse it.
    with pytest.raises(ValueError, match="offspring rate must be >= 0"):
        sample_gw_tree(math.nan, cap=5, seed=0)
