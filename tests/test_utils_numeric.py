"""Tests for the numpy ``logsumexp`` used by the EM fits."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from repro.utils import logsumexp


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_scipy(self, axis, keepdims):
        a = np.random.default_rng(0).standard_normal((160, 3)) * 40.0
        ours = logsumexp(a, axis=axis, keepdims=keepdims)
        reference = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
        assert np.shape(ours) == np.shape(reference)
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=1e-12)

    def test_rows_with_neg_inf_entries(self):
        a = np.random.default_rng(1).standard_normal((6, 4))
        a[1, 2] = -np.inf
        a[4, :3] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's own subtraction
            reference = scipy_logsumexp(a, axis=1, keepdims=True)
        np.testing.assert_allclose(logsumexp(a, axis=1, keepdims=True), reference, rtol=1e-12, atol=1e-12)

    def test_all_neg_inf_row_is_neg_inf_without_warning(self):
        a = np.array([[0.0, 1.0], [-np.inf, -np.inf], [-np.inf, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logsumexp(a, axis=1)
        assert out[1] == -np.inf
        np.testing.assert_allclose(out[[0, 2]], [np.log(1.0 + np.e), 2.0], rtol=1e-12)

    def test_large_values_do_not_overflow(self):
        a = np.array([1000.0, 1000.0])
        np.testing.assert_allclose(logsumexp(a), 1000.0 + np.log(2.0), rtol=1e-12)
