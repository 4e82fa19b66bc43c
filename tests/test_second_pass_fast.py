"""Exact-equivalence tests: the inverted-index second passes vs the
set-based reference implementations in tests/reference.py (they must
agree bit-for-bit)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.second_pass import (
    assign_left_biclustering_fast,
    assign_left_bmf_fast,
)
from tests.reference import assign_left_biclustering, assign_left_bmf


def random_instance(rng, m=40, n=60, k=6):
    stream = [
        sorted(set(rng.integers(0, n, rng.integers(0, 12)).tolist()))
        for _ in range(m)
    ]
    clusters = [
        sorted(set(rng.integers(0, n, rng.integers(0, 10)).tolist()))
        for _ in range(k)
    ]
    return stream, clusters


def tie_heavy_instance(rng, m=12, n=8, k=10, size=3):
    """Many equal-size clusters over few ids: scores and ratios tie often."""
    stream = [rng.integers(0, n, rng.integers(0, 7)).tolist() for _ in range(m)]
    clusters = [rng.choice(n, size, replace=False).tolist() for _ in range(k)]
    return stream, clusters


class TestBiclusteringEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        stream, clusters = random_instance(rng)
        assert assign_left_biclustering_fast(stream, clusters) == \
            assign_left_biclustering(stream, clusters)

    def test_empty_clusters_mixed(self):
        stream = [[1, 2], [5], [99]]
        clusters = [[], [1, 2, 3], [], [5, 6]]
        assert assign_left_biclustering_fast(stream, clusters) == \
            assign_left_biclustering(stream, clusters)

    def test_no_clusters(self):
        assert assign_left_biclustering_fast([[1]], []) == []

    def test_zero_overlap_default(self):
        stream = [[99]]
        clusters = [[], [1], [2]]
        assert assign_left_biclustering_fast(stream, clusters) == \
            assign_left_biclustering(stream, clusters)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_instances(self, seed):
        rng = np.random.default_rng(seed)
        stream, clusters = random_instance(rng, m=15, n=25, k=4)
        assert assign_left_biclustering_fast(stream, clusters) == \
            assign_left_biclustering(stream, clusters)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_tie_heavy(self, seed):
        stream, clusters = tie_heavy_instance(np.random.default_rng(seed))
        assert assign_left_biclustering_fast(stream, clusters) == \
            assign_left_biclustering(stream, clusters)


class TestBmfEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        stream, clusters = random_instance(rng)
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert fast.choice_scores == ref.choice_scores
        assert np.allclose(fast.cluster_scores, ref.cluster_scores)

    def test_overlapping_clusters(self):
        stream = [[1, 2, 3, 4, 5, 6]]
        clusters = [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7]]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships

    def test_duplicate_clusters_tie_break(self):
        stream = [[1, 2]]
        clusters = [[1, 2], [1, 2]]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships == [[0]]

    def test_empty_stream_and_clusters(self):
        fast = assign_left_bmf_fast([], [])
        assert fast.memberships == []
        fast2 = assign_left_bmf_fast([[1]], [])
        assert fast2.memberships == [[]]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_instances(self, seed):
        rng = np.random.default_rng(seed)
        stream, clusters = random_instance(rng, m=15, n=25, k=4)
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert fast.choice_scores == ref.choice_scores

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_tie_heavy(self, seed):
        stream, clusters = tie_heavy_instance(np.random.default_rng(seed))
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert fast.choice_scores == ref.choice_scores
        assert np.array_equal(fast.cluster_scores, ref.cluster_scores)

    def test_planted_dataset(self):
        g = sd.planted_zipf_bipartite(
            n_left=200, n_right=300, k_true=6, r=12, p=0.8,
            memberships_per_left=1.3, background_deg=2.0, seed=7,
        )
        stream = [a.tolist() for a in g.adj]
        clusters = [c.tolist() for c in g.right_clusters]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert np.allclose(fast.cluster_scores, ref.cluster_scores)
