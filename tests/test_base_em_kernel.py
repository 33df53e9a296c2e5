"""Contract and oracle tests for the stacked base-GMM EM kernel.

* Slice invariance: a stacked fit over any function slice equals that
  slice of the full α stack, bit for bit — the property that lets every
  executor (thread chunks, process chunks, distributed one-function
  shards) schedule slices of one kernel.
* Oracle agreement: one stacked E-step / M-step matches the direct
  per-component form (``gmm_oracle``) from identical inputs.
* Cache namespace: an inference entry written under the pre-kernel
  cache parameters misses, and the new fit keeps its hard labels.
"""

from __future__ import annotations

import numpy as np
import pytest

import gmm_oracle
from repro.core.affinity import AffinityMatrix, compute_affinity_matrix
from repro.core.inference import hierarchical
from repro.core.inference.base_gmm import (
    BASE_EM_KERNEL,
    DiagonalGMM,
    e_step,
    fit_stacked,
    m_step,
    stack_blocks,
)
from repro.core.inference.hierarchical import (
    BASE_FIT_CHUNK,
    HierarchicalConfig,
    fit_all_base_functions,
    fit_base_functions,
)
from repro.engine import ArtifactCache, InferenceEngine
from repro.utils.rng import spawn_rng

ALPHA, N = 14, 40
COLLAPSED = 4  # a constant block: its fit is degenerate and retried
EMPTY_INIT = (5, 9)  # warm starts that leave component 1 without mass
SLICES = [slice(0, 1), slice(3, 7), slice(7, 13)]
CONFIG = HierarchicalConfig(n_classes=2, seed=0)
FIELDS = ("weights", "means", "variances")  # of GMMParams


@pytest.fixture(scope="module")
def blocks() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, N)
    out = []
    for f in range(ALPHA):
        centers = rng.normal(scale=0.4, size=(2, N))
        out.append(np.tanh(centers[labels] + rng.normal(scale=0.3 + 0.05 * f, size=(N, N))))
    out[COLLAPSED] = np.full((N, N), 0.25)
    return out


@pytest.fixture(scope="module")
def cold(blocks):
    return fit_base_functions(blocks, CONFIG, range(ALPHA))


def _inits(kind: str, cold_fits) -> list:
    if kind == "cold":
        return [None] * ALPHA
    if kind == "params":
        return [fit.params for fit in cold_fits]
    inits = [fit.responsibilities for fit in cold_fits]
    if kind == "empty":
        for f in EMPTY_INIT:
            inits[f] = np.tile([1.0, 0.0], (N, 1))
    return inits


def assert_same_fit(a, b) -> None:
    np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
    assert a.log_likelihood == b.log_likelihood
    assert (a.n_iterations, a.converged, a.degenerate, a.reinitialized) == (
        b.n_iterations,
        b.converged,
        b.degenerate,
        b.reinitialized,
    )
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(a.params, name), getattr(b.params, name))


# ----------------------------------------------------------------------
# Slice invariance
# ----------------------------------------------------------------------
class TestSliceInvariance:
    def test_forced_paths_are_exercised(self, cold):
        assert cold[COLLAPSED].reinitialized
        assert sum(fit.reinitialized for fit in cold) == 1

    @pytest.mark.parametrize("kind", ["cold", "responsibilities", "params", "empty"])
    @pytest.mark.parametrize("part", SLICES, ids=lambda s: f"{s.start}:{s.stop}")
    def test_slice_equals_full_stack(self, blocks, cold, kind, part):
        inits = _inits(kind, cold)
        full = fit_base_functions(blocks, CONFIG, range(ALPHA), inits)
        sliced = fit_base_functions(blocks[part], CONFIG, range(ALPHA)[part], inits[part])
        assert len(sliced) == part.stop - part.start
        for a, b in zip(sliced, full[part]):
            assert_same_fit(a, b)

    @pytest.mark.filterwarnings("ignore:base GMM")
    @pytest.mark.parametrize("kind", ["cold", "responsibilities", "empty"])
    def test_chunked_equals_full_stack(self, blocks, cold, kind):
        assert ALPHA % BASE_FIT_CHUNK != 0  # a ragged last chunk is covered
        inits = _inits(kind, cold)
        full = fit_base_functions(blocks, CONFIG, range(ALPHA), inits)
        affinity = AffinityMatrix(np.concatenate(blocks, axis=1))
        initializers = None if kind == "cold" else inits
        for n_jobs in (1, 3):
            lp, chunked = fit_all_base_functions(affinity, CONFIG, n_jobs=n_jobs, initializers=initializers)
            for a, b in zip(chunked, full):
                assert_same_fit(a, b)
            np.testing.assert_array_equal(lp, np.concatenate([fit.responsibilities for fit in full], axis=1))

    def test_diagonal_gmm_is_the_one_function_case(self, blocks):
        model = DiagonalGMM(2, seed=17).fit(blocks[2])
        (stacked,) = fit_stacked(
            stack_blocks([blocks[2]]),
            [None],
            [spawn_rng(17, "diag-gmm")],
            n_components=2,
            max_iter=100,
            tol=1e-6,
            variance_floor=1e-6,
        )
        assert_same_fit(model, stacked)


class TestEmptyComponentReseed:
    def test_reseed_draws_a_row_of_its_own_block(self, blocks):
        xx = stack_blocks(blocks[:3])
        masses = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
        resp = np.repeat(masses[:, :, None], N, axis=2)  # (F, K, N)
        params = m_step(xx, resp, [np.random.default_rng(f) for f in range(3)], 1e-6)
        reseeded = params.means[1, 1]
        assert any(np.array_equal(reseeded, row) for row in blocks[1])
        np.testing.assert_array_equal(params.variances[1, 1], np.maximum(blocks[1].var(axis=0), 1e-6))
        np.testing.assert_allclose(params.weights[1], np.array([1.0, 1.0 / N]) / (1.0 + 1.0 / N))
        np.testing.assert_allclose(params.weights.sum(axis=1), 1.0)


# ----------------------------------------------------------------------
# Oracle: one EM step against the direct per-component form
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_affinity(vgg, small_surface) -> AffinityMatrix:
    return compute_affinity_matrix(vgg, small_surface.images, top_z=3, layers=(1, 3))


@pytest.fixture(scope="module")
def real_blocks(real_affinity) -> list[np.ndarray]:
    return [real_affinity.block(f) for f in range(real_affinity.n_functions)]


class TestOracle:
    @staticmethod
    def _fitted(blocks):
        return [DiagonalGMM(2, max_iter=5, seed=f).fit(block) for f, block in enumerate(blocks)]

    @pytest.mark.parametrize("source", ["real", "synthetic"])
    def test_one_e_step_matches_oracle(self, request, source):
        blocks = request.getfixturevalue("real_blocks" if source == "real" else "blocks")
        fits = self._fitted(blocks)
        xx = stack_blocks(blocks)
        stacked = [np.stack([getattr(fit.params, name) for fit in fits]) for name in FIELDS]
        responsibilities, log_likelihood = e_step(xx, *stacked)
        for f, (block, fit) in enumerate(zip(blocks, fits)):
            expected, expected_ll = gmm_oracle.e_step(block, fit.params)
            np.testing.assert_allclose(responsibilities[f].T, expected, rtol=0, atol=1e-6)
            assert log_likelihood[f] == pytest.approx(expected_ll, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("source", ["real", "synthetic"])
    def test_one_m_step_matches_oracle(self, request, source):
        blocks = request.getfixturevalue("real_blocks" if source == "real" else "blocks")
        posteriors = [fit.responsibilities for fit in self._fitted(blocks)]
        stacked = np.stack([posterior.T for posterior in posteriors])
        params = m_step(stack_blocks(blocks), stacked, [None] * len(blocks), 1e-6)
        for f, (block, posterior) in enumerate(zip(blocks, posteriors)):
            expected = gmm_oracle.m_step(block, posterior, 1e-6)
            for name in FIELDS:
                actual = getattr(params, name)[f]
                np.testing.assert_allclose(actual, getattr(expected, name), rtol=1e-6, atol=1e-12)

    def test_constant_and_duplicated_columns_stay_finite(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 6))
        x[15:] += 3.0
        x[:, 1] = 0.7  # constant column
        x[:, 4] = x[:, 2]  # duplicated column
        x[:, 5] = x[:, 2]
        floor = 1e-6
        fit = DiagonalGMM(2, variance_floor=floor, seed=0).fit(x)
        assert fit.params.variances.min() >= floor
        for value in (fit.params.weights, fit.params.means, fit.params.variances, fit.responsibilities):
            assert np.isfinite(value).all()
        assert np.isfinite(fit.log_likelihood)
        # One step from the fitted parameters agrees with the oracle too.
        stacked = (fit.params.weights[None], fit.params.means[None], fit.params.variances[None])
        responsibilities, _ = e_step(stack_blocks([x]), *stacked)
        np.testing.assert_allclose(responsibilities[0].T, gmm_oracle.e_step(x, fit.params)[0], atol=1e-6)
        params = m_step(stack_blocks([x]), responsibilities, [None], floor)
        expected = gmm_oracle.m_step(x, responsibilities[0].T, floor)
        assert params.variances.min() >= floor
        np.testing.assert_allclose(params.variances[0], expected.variances, rtol=1e-6, atol=1e-12)


# ----------------------------------------------------------------------
# Cache namespace
# ----------------------------------------------------------------------
class TestCacheNamespace:
    def test_kernel_tag_is_in_the_key_params(self):
        assert InferenceEngine(CONFIG)._params(None)["base_em"] == BASE_EM_KERNEL

    def test_entry_from_previous_kernel_misses(self, tmp_path, monkeypatch, real_affinity):
        affinity = real_affinity
        cache = ArtifactCache(str(tmp_path))
        current = InferenceEngine._params

        def previous(self, warm):
            return {name: value for name, value in current(self, warm).items() if name != "base_em"}

        with monkeypatch.context() as patch:
            # The cache as the per-component kernel left it: its key
            # params and its posterior.
            patch.setattr(InferenceEngine, "_params", previous)
            patch.setattr(hierarchical, "fit_base_functions", gmm_oracle.fit_base_functions)
            old = InferenceEngine(CONFIG, executor="serial", cache=cache).fit(affinity)
        assert cache.stats.misses.get("inference") == 1
        new = InferenceEngine(CONFIG, executor="serial", cache=cache).fit(affinity)
        assert cache.stats.misses.get("inference") == 2
        assert not cache.stats.hits.get("inference")
        np.testing.assert_array_equal(new.posterior.argmax(axis=1), old.posterior.argmax(axis=1))
        np.testing.assert_allclose(new.posterior, old.posterior, atol=1e-4)
        InferenceEngine(CONFIG, executor="serial", cache=cache).fit(affinity)
        assert cache.stats.hits.get("inference") == 1
