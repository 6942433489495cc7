"""Multiple linear regression (the paper's Table-6 analysis).

The paper explains the anomalous VECTOR_SIZE scaling of phases 1 and 8
by regressing their cycle counts on two predictors -- L1 data-cache
misses per kilo-instruction and the percentage of memory instructions --
and reporting the coefficient of determination (R^2 = 0.903 and 0.966).
This module implements ordinary least squares with an intercept and the
same R^2 computation, NumPy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegressionResult:
    """OLS fit summary."""

    coefficients: np.ndarray   # (k,) slopes, predictor order preserved
    intercept: float
    r_squared: float
    predictions: np.ndarray
    residuals: np.ndarray


def linear_regression(X: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Fit ``y ~ 1 + X`` by ordinary least squares.

    ``X`` has shape (n_samples, n_predictors); ``y`` has shape
    (n_samples,).  Requires at least one more sample than predictors.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), got {y.shape}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} samples for {k} predictors, got {n}")
    A = np.column_stack([np.ones(n), X])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ beta
    resid = y - pred
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(
        coefficients=beta[1:],
        intercept=float(beta[0]),
        r_squared=r2,
        predictions=pred,
        residuals=resid,
    )


def cycles_vs_memory_model(cycles: np.ndarray, dcm_per_ki: np.ndarray,
                           mem_ratio: np.ndarray) -> RegressionResult:
    """The exact Table-6 model: cycles ~ L1-DCM/ki + %memory-instructions."""
    X = np.column_stack([dcm_per_ki, mem_ratio])
    return linear_regression(X, np.asarray(cycles, dtype=float))
