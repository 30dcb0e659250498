"""Scatter-matrix estimation: the sample covariance matrix and robust
M-estimators computed by an accelerated weighted fixed-point iteration.

An M-estimate solves

    Sigma = (1/n) * sum_i u(x_i^H Sigma^{-1} x_i) x_i x_i^H

for a scalar weight function ``u``.  The iteration map F evaluates the
right-hand side at the previous iterate and rescales the result by the
estimator kind's post-step normalization; ``WeightFunction`` lists the kinds
and how the engine accelerates F, and ``m_estimate_batch`` gives the
stopping rule and the flags.  The engine operates on stacks of sample
matrices; each stack member follows exactly the trajectory it would follow
alone, so batched and one-at-a-time results agree.

Inside the iteration the data enter only through their outer products: the
distances x_i^H Sigma^{-1} x_i = <Sigma^{-1}, x_i x_i^H> and the weighted step
sum_i w_i x_i x_i^H are both linear in x_i x_i^H.  The engine runs a stack in
consecutive blocks.  For a robust kind each block builds one real (B, p*p, n)
tensor Q of its outer products (the diagonal, then the real and imaginary
parts of the strict upper triangle), and every map evaluation is two batched
real mat-vecs against it.  Memory is bounded by one byte budget, not by
members: a block takes as many members as fit their Q (8 p^2 n bytes each)
in ``_BLOCK_BYTES`` = 5.12 MB, at least 1 and at most ``_MAX_BLOCK`` = 512.
Q is built by rows of the upper triangle, with two temporaries of at most
(B, p-1, n) complex each.  At (p, n) = (5, 10) a block is 512 members (the
cap; the budget would give 2560); at (5, 50) it is 512 members, a 5.12 MB Q
built with 3.28 MB of temporaries; at (40, 400) it is 1 member, a 5.12 MB Q
built with 0.50 MB of temporaries.  The scm kind's one exact step needs no
Q: each block copies its X^H (16 p n bytes per member) and forms X X^H / n.
A call holds one block at a time, Q for the robust kinds and X^H for scm,
however large the stack is.
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .sampling import gg_scale

_COND_LIMIT = 1e14
# the stopping rule of the fixed-point iteration (see m_estimate_batch)
_EPSILON = 1e-6
_MAX_ITERATIONS = 200
# growth and shrink factor of the SQUAREM step-length bound (mstep in
# Varadhan & Roland's reference implementation, which starts the bound at 1)
_STEP_FACTOR = 4.0
# bytes of one engine block's outer-product tensor Q (512 members at p=5,
# n=50), and the most members a block takes.  The budget counts Q alone;
# the cap binds only where p^2 n < 1250 (fig1's p=5, n=10), and bounds
# memory there: without it Tyler's traced peak on a 4096-trial chunk rose
# from 5.2 to 18.8 MB, at the same speed.
_BLOCK_BYTES = 5_120_000
_MAX_BLOCK = 512


class _Whitened(NamedTuple):
    """Inverses of a stack of iterates and the squared Mahalanobis distances
    ``d_i = x_i^H Sigma^{-1} x_i`` of the data columns under them.

    The distances come from the outer-product tensor Q (see
    ``_outer_products``) as one real mat-vec per member,
    ``d = _dual(Sigma^{-1}) @ Q``; the data columns themselves are never
    touched.  ``singular`` flags members whose Cholesky factorization
    failed; those were factored as the identity, so their next map
    evaluation stays finite, and ``_apply_map`` flags them.
    """

    inv: np.ndarray  # (B, p, p)
    d: np.ndarray  # (B, n)
    singular: np.ndarray  # (B,) bool


class _Layout(NamedTuple):
    """Index arrays of Q's row order for dimension p; read-only, shared
    through the cache of ``_layout``."""

    iu: np.ndarray  # rows of the strict upper triangle, row-major
    ju: np.ndarray  # its columns
    # positions of Re diag, Re upper and Im upper in the interleaved real
    # view of a p x p complex matrix
    dual: np.ndarray


@functools.cache
def _layout(p: int) -> _Layout:
    iu, ju = np.triu_indices(p, 1)
    diag = np.arange(p)
    dual = np.concatenate([2 * (diag * p + diag), 2 * (iu * p + ju), 2 * (iu * p + ju) + 1])
    for a in (iu, ju, dual):
        a.flags.writeable = False
    return _Layout(iu, ju, dual)


def _outer_products(x: np.ndarray) -> np.ndarray:
    """The real (B, p*p, n) tensor Q of the outer products x_i x_i^H of a
    (B, p, n) stack's columns.

    Row a < p holds |x_a|^2; the next p(p-1)/2 rows hold Re(x_a conj(x_b))
    and the last p(p-1)/2 rows Im(x_a conj(x_b)), for the pairs a < b of
    the strict upper triangle in row-major order, built one row a at a time.
    """
    n_batch, p, n = x.shape
    m = p * (p - 1) // 2
    q = np.empty((n_batch, p * p, n))
    np.add(np.square(x.real), np.square(x.imag), out=q[:, :p])
    lo = p
    for a in range(p - 1):
        # a call, not ``u * v.conj()``: numpy reuses an operator's temporary
        # operand above 256 KiB and computes conj(v) * u there, which rounds
        # differently, so a member's bits would depend on its block's size
        pairs = np.multiply(x[:, a:a + 1], x[:, a + 1:].conj())
        hi = lo + p - 1 - a
        q[:, lo:hi], q[:, lo + m:hi + m] = pairs.real, pairs.imag
        lo = hi
    return q


def _block_members(p: int, n: int) -> int:
    """Members per engine block: as many as fit their Q in ``_BLOCK_BYTES``,
    at least 1 and at most ``_MAX_BLOCK``."""
    return max(1, min(_MAX_BLOCK, _BLOCK_BYTES // (8 * p * p * n)))


def _dual(s: np.ndarray) -> np.ndarray:
    """Pack a contiguous (B, p, p) Hermitian stack into the (B, p*p)
    coordinates g with ``g @ Q[:, i] = x_i^H S x_i``: the diagonal, then
    2 Re and 2 Im of the strict upper triangle, in ``_outer_products``' row
    order."""
    n_batch, p, _ = s.shape
    g = s.view(np.float64).reshape(n_batch, 2 * p * p)[:, _layout(p).dual]
    g[:, p:] *= 2.0
    return g


def _hermitian(y: np.ndarray, p: int) -> np.ndarray:
    """Unpack (B, p*p) rows in ``_outer_products``' order into the (B, p, p)
    Hermitian matrices they are the coordinates of; exactly Hermitian."""
    iu, ju, _ = _layout(p)
    m = iu.size
    diag = np.arange(p)
    v = np.zeros((y.shape[0], p, p), dtype=np.complex128)
    v.real[:, diag, diag] = y[:, :p]
    v.real[:, iu, ju] = v.real[:, ju, iu] = y[:, p:p + m]
    v.imag[:, iu, ju] = y[:, p + m:]
    v.imag[:, ju, iu] = -y[:, p + m:]
    return v


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a (B, p, p) stack of lower-triangular matrices.

    Forward substitution, one row of the inverse per step for the whole
    stack (row 0's sum is empty); for small p this is several times faster
    than a batched LU inverse, which ignores the triangular structure.
    """
    p = l.shape[-1]
    inv = np.zeros_like(l)
    rdiag = 1.0 / np.einsum("kii->ki", l)
    for i in range(p):
        inv[:, i, :i] = -(l[:, i:i + 1, :i] @ inv[:, :i, :i])[:, 0] * rdiag[:, i, None]
        inv[:, i, i] = rdiag[:, i]
    return inv


def _cholesky(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, p, p) stack and the members whose
    factorization failed.

    A member fails exactly when its own factorization fails (it is not
    numerically positive definite, or not finite), whatever the other
    members are; its factor holds NaN.  ``np.linalg.cholesky`` returns NaN
    for a non-finite member but raises for an indefinite one, and then the
    members are factored one by one.
    """
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        chol = np.full_like(sigma, np.nan)
        for k, member in enumerate(sigma):
            try:
                chol[k] = np.linalg.cholesky(member)
            except np.linalg.LinAlgError:
                pass
    return chol, ~np.isfinite(chol).all(axis=(1, 2))


def _whiten(sigma: np.ndarray, q: np.ndarray) -> _Whitened:
    """Factor each member of a (B, p, p) stack once and get its inverse and
    its data's distances from the outer-product tensor ``q``.  A member is
    singular exactly when its ``_cholesky`` fails.
    """
    chol, singular = _cholesky(sigma)
    if singular.any():
        chol[singular] = np.eye(sigma.shape[-1])
    chol_inv = _tril_inv(chol)
    with np.errstate(over="ignore", invalid="ignore"):  # _apply_map flags a non-finite step
        inv = chol_inv.conj().transpose(0, 2, 1) @ chol_inv
        d = np.matmul(_dual(inv)[:, None, :], q)[:, 0]
    return _Whitened(inv, d, singular)


# Post-step normalizations: (weight, V, d) -> c V, with d the distances of
# the iterate the map was applied to; no post-step factors V.

def _no_scaling(weight, v, d):
    return v


def _pin_trace(weight, v, d):
    # Tyler's weight is scale-free, so the equation fixes Sigma only up to
    # scale; pin the trace to p
    trace = np.einsum("kii->k", v).real
    return v * (v.shape[-1] / trace)[:, None, None]


def _ml_scale(weight, v, d):
    # gg_ml: c = S^((1-s)/s) with S = s/(b n p) sum_i d_i^s makes the map
    # scale-free, and S = 1 at its fixed point (see WeightFunction)
    s = weight.shape_s
    p, n = v.shape[-1], d.shape[-1]
    c = (s / (gg_scale(p, s) * n * p) * np.sum(d**s, axis=1)) ** ((1.0 - s) / s)
    return v * c[:, None, None]


class _Kind(NamedTuple):
    weight: Callable  # (WeightFunction, d, p) -> u(d) in dimension p
    post_step: Callable  # normalization applied after every weighted step
    # the kind whose estimate of the same data is a good start, or None
    warm_start: str | None = None


# the iterated kinds (not scm), each warm-start source before its starters
_KINDS = {
    "tyler": _Kind(lambda w, d, p: p / d, _pin_trace),
    "student_t": _Kind(lambda w, d, p: (2.0 * p + w.nu) / (w.nu + 2.0 * d), _no_scaling),
    "gg_ml": _Kind(lambda w, d, p: (w.shape_s / gg_scale(p, w.shape_s)) * d ** (w.shape_s - 1.0),
                   _ml_scale, "tyler"),
}
KINDS = ("scm", *_KINDS)


@dataclass(frozen=True)
class WeightFunction:
    """Scalar weight u(d) applied to squared Mahalanobis distances, and the
    normalization the fixed-point engine applies after each weighted step.

    Kinds
    -----
    scm        X X^H / n, one exact step     none (not iterated)
    tyler      u(d) = p / d                  trace pinned to p
    student_t  u(d) = (2p + nu) / (nu + 2d)  none
    gg_ml      u(d) = (s/b) d^(s-1)          scale-free ML scale; starts from tyler

    A weight is its kind and that kind's own parameter, ``nu`` for student_t
    and ``shape_s`` for gg_ml, both keyword-only; it sets the other to None,
    so weights of one kind compare equal whatever else was passed.  The
    dimension p is the data's (``x.shape[1]``), read where it is used.

    ``nu = 0`` degenerates student_t to the Tyler weight.  The gg_ml scale
    ``b = gg_scale(p, s)`` makes the weight match the density generator
    exp(-d^s / b) with unit-mean-per-dimension radius.  The gg_ml step V
    is multiplied by c = S^((1-s)/s), where S = s/(b n p) sum_i d_i^s
    comes from the distances the step was taken with (after the ML scale
    step of Pascal, Bombrun, Tourneret & Berthoumieu, "Parameter estimation
    for multivariate generalized Gaussian distributions", IEEE TSP 2013).
    The map is then scale-free: Sigma -> a Sigma scales d by 1/a, V by
    a^(1-s) and S by a^(-s), so c V is unchanged, and the iteration cannot
    crawl along the scale direction.  Since tr(Sigma^{-1} V) = p S, a fixed
    point Sigma = c V has S = 1, so it solves the ML equation Sigma = V.

    ``warm_start`` names the kind whose estimate of the same data is a
    better start than the identity, or is None.  gg_ml starts from Tyler's
    estimate: both are shape estimators of the same scatter, gg_ml's map
    is scale-free, so only the start's shape matters, and at p=5,
    n=50, s=0.1 the start cuts gg_ml's map evaluations by about a fifth.

    The weighted step and its normalization make the iteration map F, which
    ``m_estimate_batch`` runs in SQUAREM cycles (Varadhan & Roland, Scand. J.
    Stat. 2008): two evaluations of F, then an extrapolation from the three
    iterates (``_extrapolate``; its step-length bound follows the authors'
    reference implementation).  At p=5, n=10 this cuts Tyler from about 35
    map evaluations to about 15.  The stopping rule is the plain iteration's,
    applied to every evaluation, so an estimate is always an output of F and
    carries its normalization exactly, and iteration counts are counts of map
    evaluations.
    """

    kind: str
    _: KW_ONLY
    nu: float | None = None
    shape_s: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "student_t":
            if self.nu is None or not 0 <= self.nu < np.inf:
                raise ValueError(f"student_t weight requires a finite nu >= 0, got {self.nu}")
        else:
            object.__setattr__(self, "nu", None)
        if self.kind == "gg_ml":
            if self.shape_s is None or not 0 < self.shape_s < np.inf:
                raise ValueError("gg_ml weight requires a finite shape_s > 0, the gg noise "
                                 f"shape, got {self.shape_s}")
        else:
            object.__setattr__(self, "shape_s", None)

    @property
    def warm_start(self) -> str | None:
        """The kind whose estimate of the same data this kind starts from
        (``m_estimate_batch``'s ``initial``), or None for the identity."""
        return None if self.kind == "scm" else _KINDS[self.kind].warm_start


@dataclass(frozen=True, eq=False)
class BatchFixedPointResult:
    """Per-member results over a stack of sample matrices.

    ``ok`` is False where a member has no usable estimate (its estimate and
    residual are placeholders, see ``m_estimate_batch``, and must be
    discarded); ``converged`` is False where the residual never dropped
    below ``_EPSILON``.
    ``iterations`` counts evaluations of the iteration map.  ``eigenvalues``
    are those of the estimates, ascending, from the exit vetting.
    """

    estimates: np.ndarray  # (B, p, p)
    iterations: np.ndarray  # (B,)
    residuals: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) bool
    ok: np.ndarray  # (B,) bool
    eigenvalues: np.ndarray  # (B, p)


def _apply_map(kind: _Kind, weight, wh: _Whitened, q):
    """One evaluation of the iteration map F on factored iterates.

    The weighted step sum_i w_i x_i x_i^H is the mat-vec Q w, unpacked into
    an exactly Hermitian matrix and scaled by the post-step.  Returns
    F(Sigma), the stopping-rule residuals ||I - Sigma^{-1} F(Sigma)||_F and
    the flagged members (see ``m_estimate_batch``): an all-zero data column
    (its distance is exactly 0 under any Sigma), a singular Sigma, or an
    unusable F(Sigma).  A flagged member's F(Sigma) is the identity.
    """
    p, n = wh.inv.shape[-1], q.shape[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # flagged or counted below
        w = kind.weight(weight, wh.d, p) / n
        y = np.matmul(q, w[:, :, None])[:, :, 0]
        nxt = kind.post_step(weight, _hermitian(y, p), wh.d)
        # cheap in-loop guards; the full eigenvalue vetting happens on exit
        bad = (wh.singular | (wh.d == 0).any(axis=1) | ~np.isfinite(nxt).all(axis=(1, 2))
               | (y[:, :p].min(axis=1) <= 0))
        eye = np.eye(p, dtype=np.complex128)
        nxt[bad] = eye
        resid = np.linalg.norm(eye - wh.inv @ nxt, axis=(1, 2))
    return nxt, resid, bad


def _extrapolate(theta0, theta1, theta2, q, bound):
    """The SQUAREM step from theta0, theta1 = F(theta0), theta2 = F(theta1).

    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, each member
    takes the step length a = ||r||_F / ||v||_F (1 when v = 0), clipped to
    [1, bound], and the candidate theta0 + 2 a r + a^2 v; a = 1 gives
    theta2, the plain iteration's iterate.  A step that reaches the bound
    multiplies the bound by 4.  A member whose candidate is not finite or not
    positive definite by ``_whiten``'s test takes theta2 instead, factored
    afresh whatever the kind, and its bound shrinks by 4 (not below 1).
    Returns the next iterate, its whitening and the new bounds.
    """
    r = theta1 - theta0
    v = (theta2 - theta1) - r
    with np.errstate(over="ignore", invalid="ignore"):  # _whiten flags a non-finite candidate
        nr = np.linalg.norm(r, axis=(1, 2))
        nv = np.linalg.norm(v, axis=(1, 2))
        a = np.ones_like(nr)
        np.divide(nr, nv, out=a, where=nv > 0)
        a = np.clip(a, 1.0, bound)
        bound = np.where(a == bound, bound * _STEP_FACTOR, bound)
        cand = theta0 + (2.0 * a)[:, None, None] * r + (a * a)[:, None, None] * v
    wh = _whiten(cand, q)
    fallback = wh.singular.copy()  # wh.singular is overwritten below
    if fallback.any():
        cand[fallback] = theta2[fallback]
        wh.inv[fallback], wh.d[fallback], wh.singular[fallback] = _whiten(theta2[fallback], q[fallback])
        bound = np.where(fallback, np.maximum(bound / _STEP_FACTOR, 1.0), bound)
    return cand, wh, bound


def _run_block(weight, x, estimates, iterations, residuals, converged, ok) -> None:
    """Estimate one block of ``m_estimate_batch``'s stack, filling that
    block's views of the result arrays in place; ``estimates`` enters holding
    the initial iterates."""
    p, n = x.shape[1:]
    if weight.kind == "scm":
        # u == 1 makes the iteration map constant; one application is exact.
        # X^H written straight into a contiguous array: one block-sized copy
        # of x, not two (conj, then its contiguous transpose); same values
        xh = np.conjugate(x.transpose(0, 2, 1), out=np.empty((x.shape[0], n, p), dtype=np.complex128))
        s = np.matmul(x, xh) / n
        estimates[:] = 0.5 * (s + s.conj().transpose(0, 2, 1))
        iterations[:], residuals[:], converged[:] = 1, 0.0, True
        return
    kind = _KINDS[weight.kind]
    # Q holds the active members' outer products, in the order of ``active``
    q = _outer_products(x)
    active = np.arange(x.shape[0])
    cur = estimates[active]  # the iterate F is applied to next
    wh = None  # its whitening, when already known
    base = cur  # theta0 of the current cycle; read only by its second evaluation
    bound = np.ones(active.size)  # SQUAREM step-length bounds

    for m in range(1, _MAX_ITERATIONS + 1):
        if wh is None:
            wh = _whiten(cur, q)
        nxt, resid, bad = _apply_map(kind, weight, wh, q)
        done = ~bad & (resid < _EPSILON)
        if m % 2:
            # a cycle's first evaluation tests the last extrapolation: where
            # the residual grew, shrink the step bound
            worse = resid > residuals[active]
            bound = np.where(worse, np.maximum(bound / _STEP_FACTOR, 1.0), bound)
        estimates[active] = nxt
        iterations[active] = m
        residuals[active] = resid
        ok[active[bad]] = False
        converged[active[done]] = True

        leave = done | bad
        if leave.all():
            break
        if leave.any():
            keep = ~leave
            active, q, cur, base, nxt, bound = (a[keep] for a in (active, q, cur, base, nxt, bound))
        if m % 2:  # theta1 = F(theta0)
            base, cur, wh = cur, nxt, None
        else:  # theta2 = F(theta1)
            cur, wh, bound = _extrapolate(base, cur, nxt, q, bound)


def m_estimate_batch(
    x: np.ndarray, weight: WeightFunction, initial: np.ndarray | None = None
) -> BatchFixedPointResult:
    """Estimate the scatter of each member of a (B, p, n) stack of sample
    matrices under ``weight``.

    ``initial`` is a (B, p, p) stack of per-member initial iterates, each
    Hermitian (relative Frobenius asymmetry at most 1e-12) and positive
    definite (its Cholesky factorization succeeds); ``None`` starts every
    member from the identity.  The scm kind ignores it: one step is exact.
    The Monte Carlo harness starts each gg_ml member from Tyler's usable
    estimate of the same trial (``WeightFunction.warm_start``), so there
    gg_ml's iterations count evaluations from that start.

    A member stops, with that F(Sigma) as its estimate, at the first map
    evaluation where ``||I - Sigma^{-1} F(Sigma)||_F < _EPSILON``, or after
    ``_MAX_ITERATIONS`` evaluations with ``converged`` False; ``iterations``
    counts evaluations.  ``ok`` is False for a member flagged inside the
    loop, and one whose estimate fails the exit vetting (condition number
    above 1e14, non-positive or non-finite eigenvalues).  A member is flagged
    at the evaluation where its sample matrix has an all-zero snapshot column
    (the first), its iterate fails its Cholesky factorization, or its step is
    unusable; it leaves there with that count, the identity as its
    estimate, and a placeholder residual.
    An scm member is flagged only when its estimate is zero (an all-zero
    sample matrix); with n <= p its singular estimate stays usable.

    ``x`` must be finite, with p, n >= 1 (and n > p for a robust kind).
    ``WeightFunction`` describes the iteration map and its SQUAREM cycles;
    the module docstring describes the blocks every kind runs in, one at a
    time (Q, or scm's X^H), and their byte budget and sizes.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3 or 0 in x.shape[1:]:
        raise ValueError(f"expected a (B, p, n) stack with p, n >= 1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("every sample must be finite")
    n_batch, p, n = x.shape

    iterations = np.zeros(n_batch, dtype=np.int64)
    residuals = np.full(n_batch, np.inf)
    converged = np.zeros(n_batch, dtype=bool)
    ok = np.ones(n_batch, dtype=bool)

    if n <= p and weight.kind != "scm":
        raise ValueError(f"robust estimation requires n > p (got n={n}, p={p})")
    if initial is None or weight.kind == "scm":
        estimates = np.broadcast_to(np.eye(p, dtype=np.complex128), (n_batch, p, p)).copy()
    else:
        estimates = np.array(initial, dtype=np.complex128)
        if estimates.shape != (n_batch, p, p):
            raise ValueError(f"initial iterates must be a ({n_batch}, {p}, {p}) stack, "
                             f"got shape {estimates.shape}")
        asymmetry = np.linalg.norm(estimates - estimates.conj().transpose(0, 2, 1), axis=(1, 2))
        if not (asymmetry <= 1e-12 * np.linalg.norm(estimates, axis=(1, 2))).all():
            raise ValueError("every initial iterate must be Hermitian")
        if _cholesky(estimates)[1].any():
            raise ValueError("every initial iterate must be positive definite")
    members = _block_members(p, n)
    for lo in range(0, n_batch, members):
        block = slice(lo, lo + members)
        _run_block(weight, x[block], estimates[block], iterations[block],
                   residuals[block], converged[block], ok[block])

    # exit vetting (``ok`` above): scm needs a nonzero estimate, a robust kind
    # a positive definite one with condition number at most 1e14
    evals = np.linalg.eigvalsh(estimates)
    if weight.kind == "scm":
        ok &= evals[:, -1] > 0
    else:
        with np.errstate(over="ignore"):  # a bound past the float range is inf, and holds
            ok &= (evals[:, 0] > 0) & (evals[:, -1] <= _COND_LIMIT * evals[:, 0])
    return BatchFixedPointResult(estimates, iterations, residuals, converged, ok, evals)
