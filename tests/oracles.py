"""Test-only oracles: plain one-matrix and one-curve reference computations
that the engine and the CLI do not use, so the tests that compare against
them stay independent of the code under test."""

import numpy as np
from scipy.special import airy

from robustsense import RocCurve, WeightFunction, gg_scale


def is_hermitian(a: np.ndarray) -> bool:
    """Relative Frobenius test ||A - A^H|| / ||A|| <= 1e-12 (zero matrix passes)."""
    a = np.asarray(a)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return True
    return np.linalg.norm(a - a.conj().T) <= 1e-12 * scale


def scm(x: np.ndarray) -> np.ndarray:
    """Sample covariance matrix (1/n) X X^H, symmetrized against rounding."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("X must be a p x n matrix")
    n = x.shape[1]
    if n < 1:
        raise ValueError("need at least one snapshot column")
    s = (x @ x.conj().T) / n
    return 0.5 * (s + s.conj().T)


def _weight_values(weight: WeightFunction, d: np.ndarray, p: int) -> np.ndarray:
    """u(d) of ``weight``'s kind in dimension p, from the kinds' formulas
    written out here rather than the engine's table."""
    if weight.kind == "scm":
        return np.ones_like(d)
    if weight.kind == "tyler":
        return p / d
    if weight.kind == "student_t":
        return (2.0 * p + weight.nu) / (weight.nu + 2.0 * d)
    s = weight.shape_s
    return s / gg_scale(p, s) * d ** (s - 1.0)


def fixed_point_residual(
    sigma_hat: np.ndarray,
    x: np.ndarray,
    weight: WeightFunction,
) -> float:
    """Relative Frobenius gap between sigma_hat and the estimator map applied to it.

    The weight u(d) comes from ``_weight_values`` with p = ``x.shape[0]``.
    For the Tyler weight the right-hand side is rescaled to the trace of
    ``sigma_hat`` before differencing, matching the trace-normalized
    iteration.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=np.complex128)
    if not is_hermitian(sigma_hat):
        raise ValueError("sigma_hat must be Hermitian")
    if np.linalg.eigvalsh(sigma_hat)[0] <= 0:
        raise ValueError("sigma_hat must be positive definite")
    x = np.asarray(x, dtype=np.complex128)
    p, n = x.shape
    chol_inv = np.linalg.inv(np.linalg.cholesky(sigma_hat))
    v = chol_inv @ x
    d = np.sum(v.real**2 + v.imag**2, axis=0)
    w = _weight_values(weight, d, p) / n
    rhs = (x * w[None, :]) @ x.conj().T
    rhs = 0.5 * (rhs + rhs.conj().T)
    if weight.kind == "tyler":
        rhs = rhs * (np.trace(sigma_hat).real / np.trace(rhs).real)
    return float(np.linalg.norm(sigma_hat - rhs) / np.linalg.norm(sigma_hat))


def pod_at_pfa(curve: RocCurve, pfa_target: float) -> float:
    """Linear interpolation of the detection probability at a false-alarm level."""
    if not 0.0 <= pfa_target <= 1.0:
        raise ValueError("pfa_target must lie in [0, 1]")
    # keep the highest pod among duplicated pfa values (step-function plateaus)
    rev_pfa = curve.pfa[::-1]
    uniq, first = np.unique(rev_pfa, return_index=True)
    pods = curve.pod[::-1][first]
    return float(np.interp(pfa_target, uniq, pods))


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov distance sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if not a.size or not b.size:
        raise ValueError("ks_distance needs two non-empty samples")
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(ca - cb).max())


def tw2_cdf(s) -> np.ndarray:
    """CDF of the complex Tracy-Widom law TW2, the Fredholm determinant
    F2(s) = det(I - K_Ai) on L^2(s, inf), elementwise for an array of s.

    Bornemann's quadrature (Math. Comp. 2010): Gauss-Legendre with 48 nodes
    on [s, s + 14], beyond which the Airy kernel
    K_Ai(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y), with diagonal
    Ai'(x)^2 - x Ai(x)^2, is negligible.
    """
    t, w = np.polynomial.legendre.leggauss(48)
    root_w = np.sqrt(7.0 * w)
    s = np.asarray(s, dtype=np.float64)
    out = np.empty(s.shape)
    for idx, lo in np.ndenumerate(s):
        x = lo + 7.0 * (t + 1.0)
        ai, aip, _, _ = airy(x)
        with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal is set below
            k = (np.outer(ai, aip) - np.outer(aip, ai)) / np.subtract.outer(x, x)
        k[np.diag_indices_from(k)] = aip**2 - x * ai**2
        out[idx] = np.linalg.det(np.eye(t.size) - root_w[:, None] * k * root_w)
    return out
