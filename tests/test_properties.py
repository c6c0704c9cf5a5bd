"""Property-based tests (hypothesis) for the density estimators and
statistics helpers — the numerical bedrock the IMAP bonuses and the
tables' confidence intervals stand on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import knn_feature
from repro.density import KnnDensityEstimator, ParzenDensityEstimator, knn_distances
from repro.eval.metrics import bootstrap_ci
from repro.rl.normalize import RunningMeanStd

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def point_clouds(min_points=2, max_points=24, dim=3):
    """Strategy: (n, dim) float arrays of reference/query points."""
    return st.lists(
        st.lists(finite, min_size=dim, max_size=dim),
        min_size=min_points, max_size=max_points,
    ).map(lambda rows: np.asarray(rows, dtype=np.float64))


# --- KNN ----------------------------------------------------------------


class TestKnnProperties:
    @settings(deadline=None, max_examples=50)
    @given(refs=point_clouds(), queries=point_clouds(max_points=8),
           k=st.integers(1, 6), perm_seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, refs, queries, k, perm_seed):
        """The k-th NN distance cannot depend on reference ordering."""
        baseline = knn_distances(queries, refs, k=k)
        shuffled = refs[np.random.default_rng(perm_seed).permutation(len(refs))]
        assert np.allclose(baseline, knn_distances(queries, shuffled, k=k))

    @settings(deadline=None, max_examples=50)
    @given(refs=point_clouds(), queries=point_clouds(max_points=8),
           k=st.integers(1, 5))
    def test_monotone_in_k(self, refs, queries, k):
        """The (k+1)-th nearest neighbour is never closer than the k-th."""
        near = knn_distances(queries, refs, k=k)
        far = knn_distances(queries, refs, k=k + 1)
        assert np.all(far >= near)

    @settings(deadline=None, max_examples=50)
    @given(refs=point_clouds(), k=st.integers(1, 5))
    def test_exclude_self_never_shrinks_distance(self, refs, k):
        plain = knn_distances(refs, refs, k=k)
        excl = knn_distances(refs, refs, k=k, exclude_self=True)
        assert np.all(excl >= plain)

    @settings(deadline=None, max_examples=30)
    @given(refs=point_clouds(min_points=3), k=st.integers(1, 5))
    def test_estimator_matches_free_function(self, refs, k):
        estimator = KnnDensityEstimator(refs, k=k)
        assert np.allclose(estimator.distance(refs), knn_distances(refs, refs, k=k))
        dist = estimator.distance(refs)
        assert np.allclose(estimator.density(refs), 1.0 / dist)
        assert np.allclose(estimator.log_density(refs), -np.log(dist))

    def test_distances_clipped_away_from_zero(self):
        refs = np.zeros((5, 3))
        assert np.all(knn_distances(refs, refs, k=2) >= 1e-8)

    def test_empty_references_fall_back_to_one(self):
        out = knn_distances(np.zeros((4, 3)), np.empty((0, 3)), k=3)
        assert np.array_equal(out, np.ones(4))


class TestKnnFeatureFallback:
    @settings(deadline=None, max_examples=30)
    @given(dim=st.integers(1, 16),
           extra=st.dictionaries(st.text(min_size=1, max_size=8), finite,
                                 max_size=4))
    def test_missing_key_yields_zero_vector(self, dim, extra):
        extra.pop("knn_victim", None)
        value = knn_feature(extra, "knn_victim", dim)
        assert value.shape == (dim,)
        assert np.array_equal(value, np.zeros(dim))

    @settings(deadline=None, max_examples=30)
    @given(feature=st.lists(finite, min_size=1, max_size=8))
    def test_present_key_passes_through_as_float64(self, feature):
        value = knn_feature({"knn_victim": feature}, "knn_victim", 99)
        assert value.dtype == np.float64
        assert np.array_equal(value, np.asarray(feature, dtype=np.float64))


# --- running statistics --------------------------------------------------


def _chan_update(state: dict, batch: np.ndarray) -> None:
    """The general Chan et al. update every batch size used to take."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == state["mean"].ndim:
        batch = batch[None]
    batch_mean = batch.mean(axis=0)
    batch_var = batch.var(axis=0)
    batch_count = batch.shape[0]
    delta = batch_mean - state["mean"]
    total = state["count"] + batch_count
    new_mean = state["mean"] + delta * batch_count / total
    m_a = state["var"] * state["count"]
    m_b = batch_var * batch_count
    m2 = m_a + m_b + delta**2 * state["count"] * batch_count / total
    state.update(mean=new_mean, var=m2 / total, count=total)


class TestRunningMeanStdProperties:
    @settings(deadline=None, max_examples=60)
    @given(dim=st.integers(1, 5),
           sizes=st.lists(st.one_of(st.none(), st.integers(1, 6)),
                          min_size=1, max_size=12),
           scale=st.floats(1e-3, 1e4), seed=st.integers(0, 2**31 - 1))
    def test_single_row_updates_match_general_path(self, dim, sizes, scale, seed):
        """Interleaved single rows (1-d or (1, d)) and batches leave the
        statistics byte-equal to the general Chan update."""
        rng = np.random.default_rng(seed)
        rms = RunningMeanStd((dim,))
        ref = {"mean": np.zeros(dim), "var": np.ones(dim), "count": 1e-4}
        for size in sizes:
            shape = (dim,) if size is None else (size, dim)
            batch = rng.standard_normal(shape) * scale + rng.standard_normal()
            rms.update(batch)
            _chan_update(ref, batch)
            assert rms.mean.tobytes() == ref["mean"].tobytes()
            assert rms.var.tobytes() == ref["var"].tobytes()
            assert np.float64(rms.count).tobytes() == np.float64(ref["count"]).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(values=st.lists(st.one_of(finite, st.sampled_from(
        [np.inf, -np.inf, np.nan])), min_size=1, max_size=20))
    def test_scalar_stream_matches_general_path(self, values):
        """The reward normalizer's shape-() statistics, one value at a time
        (non-finite values included: the single-row path must poison the
        statistics exactly as np.var would)."""
        rms = RunningMeanStd(())
        ref = {"mean": np.zeros(()), "var": np.ones(()), "count": 1e-4}
        with np.errstate(invalid="ignore"):
            for value in values:
                rms.update(np.array([value]))
                _chan_update(ref, np.array([value]))
        assert np.float64(rms.mean).tobytes() == np.float64(ref["mean"]).tobytes()
        assert np.float64(rms.var).tobytes() == np.float64(ref["var"]).tobytes()
        assert rms.count == ref["count"]


# --- Parzen -------------------------------------------------------------


class TestParzenProperties:
    @settings(deadline=None, max_examples=30)
    @given(refs=point_clouds(), queries=point_clouds(max_points=6),
           bandwidth=st.floats(0.1, 10.0), perm_seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, refs, queries, bandwidth, perm_seed):
        baseline = ParzenDensityEstimator(refs, bandwidth).density(queries)
        shuffled = refs[np.random.default_rng(perm_seed).permutation(len(refs))]
        assert np.allclose(baseline,
                           ParzenDensityEstimator(shuffled, bandwidth).density(queries))

    @settings(deadline=None, max_examples=30)
    @given(refs=point_clouds(), queries=point_clouds(max_points=6),
           bandwidth=st.floats(0.1, 10.0))
    def test_density_positive_and_at_most_one(self, refs, queries, bandwidth):
        density = ParzenDensityEstimator(refs, bandwidth).density(queries)
        assert np.all(density > 0.0)
        assert np.all(density <= 1.0 + 1e-12)  # mean of Gaussian kernels ≤ 1

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            ParzenDensityEstimator(np.zeros((2, 2)), bandwidth=0.0)


# --- bootstrap CI -------------------------------------------------------


class TestBootstrapCiProperties:
    @settings(deadline=None, max_examples=40)
    @given(values=st.lists(finite, min_size=2, max_size=30),
           seed=st.integers(0, 2**31 - 1))
    def test_interval_contains_sample_mean(self, values, seed):
        lo, hi = bootstrap_ci(values, seed=seed)
        mean = float(np.mean(values))
        assert lo <= mean + 1e-9
        assert hi >= mean - 1e-9

    @settings(deadline=None, max_examples=40)
    @given(values=st.lists(finite, min_size=2, max_size=30),
           seed=st.integers(0, 2**31 - 1))
    def test_interval_is_ordered_and_within_range(self, values, seed):
        lo, hi = bootstrap_ci(values, seed=seed)
        assert lo <= hi
        assert lo >= min(values) - 1e-9
        assert hi <= max(values) + 1e-9

    @settings(deadline=None, max_examples=25)
    @given(values=st.lists(finite, min_size=4, max_size=20),
           seed=st.integers(0, 2**31 - 1))
    def test_width_never_grows_with_more_data(self, values, seed):
        """Replicating the sample 16× shrinks the standard error ~4×;
        the bootstrap interval must not widen."""
        lo_small, hi_small = bootstrap_ci(values, seed=seed)
        lo_big, hi_big = bootstrap_ci(values * 16, seed=seed)
        assert (hi_big - lo_big) <= (hi_small - lo_small) + 1e-9

    def test_width_shrinks_strictly_on_spread_data(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 1.0, size=20).tolist()
        lo_s, hi_s = bootstrap_ci(values, seed=1)
        lo_b, hi_b = bootstrap_ci(values * 16, seed=1)
        assert (hi_b - lo_b) < 0.5 * (hi_s - lo_s)

    def test_empty_and_degenerate_inputs(self):
        assert bootstrap_ci([]) == (0.0, 0.0)
        lo, hi = bootstrap_ci([2.5] * 8)
        assert lo == hi == 2.5
