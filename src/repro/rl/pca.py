"""PCA-based parameter-impact analysis.

The paper's offline training "performs a Principal Component Analysis
(PCA) on the parameters with respect to perf to train the model to
isolate the most impactful parameters".  :func:`parameter_impact`
implements that: PCA over the design matrix augmented with the observed
``perf`` column; a parameter's impact is how strongly it co-loads with
``perf`` across components, weighted by explained variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PCAResult", "principal_components", "parameter_impact"]


@dataclass(frozen=True)
class PCAResult:
    """Eigen-decomposition of a standardised data matrix's covariance."""

    components: np.ndarray  # (n_features, n_components), columns = PCs
    explained_variance: np.ndarray  # eigenvalues, descending
    mean: np.ndarray
    scale: np.ndarray


def _standardise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return (x - mean) / scale, mean, scale


def principal_components(data: np.ndarray) -> PCAResult:
    """PCA of ``data`` (rows = observations) after standardisation."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    z, mean, scale = _standardise(data)
    cov = np.cov(z, rowvar=False)
    cov = np.atleast_2d(cov)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return PCAResult(
        components=eigvecs[:, order],
        explained_variance=np.maximum(eigvals[order], 0.0),
        mean=mean,
        scale=scale,
    )


def parameter_impact(configs: np.ndarray, perfs: np.ndarray) -> np.ndarray:
    """Impact score per parameter from sweep observations.

    ``configs`` is (n_runs, n_params) of normalised parameter values;
    ``perfs`` is (n_runs,) of observed ``perf``.  The score of parameter
    *j* is ``sum_k  lambda_k * |loading_j,k * loading_perf,k|`` over the
    principal components of the joint matrix ``[configs | perf]`` --
    parameters that move along the same high-variance directions as
    ``perf`` score high.  Scores are normalised to sum to 1.
    """
    configs = np.asarray(configs, dtype=float)
    perfs = np.asarray(perfs, dtype=float)
    if configs.ndim != 2:
        raise ValueError("configs must be 2-D")
    if perfs.shape != (configs.shape[0],):
        raise ValueError("perfs length must match configs rows")
    if configs.shape[0] < 3:
        raise ValueError("need at least three observations")

    joint = np.column_stack([configs, perfs])
    pca = principal_components(joint)
    perf_loadings = pca.components[-1, :]  # perf is the last feature
    param_loadings = pca.components[:-1, :]
    raw = np.abs(param_loadings * perf_loadings[None, :]) @ pca.explained_variance
    total = raw.sum()
    if total <= 1e-15:
        # Degenerate sweep (e.g. constant perf): uniform impact.
        return np.full(configs.shape[1], 1.0 / configs.shape[1])
    return raw / total

