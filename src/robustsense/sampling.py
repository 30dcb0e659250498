"""Complex elliptically symmetric (CES) noise generation and the rank-one
signal model used by multi-antenna detectors.

A CES vector is built from its stochastic representation

    x = sqrt(Q) * L * u,

where ``Q`` is a positive random texture, ``L`` is the Cholesky factor of the
scatter matrix and ``u`` is uniform on the complex unit sphere.  Texture laws
are normalized so that ``E[x x^H] = sigma2 * scatter`` whenever the covariance
exists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln

FAMILIES = ("gaussian", "gg", "student_t")


class Hypothesis(Enum):
    """Null (noise only) versus alternative (signal present)."""

    H0 = 0
    H1 = 1


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (master_seed, stream_id).

    Streams sharing a master seed but carrying distinct ids are statistically
    independent; the same pair always reproduces the identical sequence.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("master_seed and stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.master_seed, self.stream_id))
        )


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class NoiseModel:
    """CES noise family plus its parameters.

    ``sigma2`` is the per-antenna noise power; ``shape_s`` is the generalized
    Gaussian shape (only for family ``"gg"``); ``dof_nu`` the Student-t
    degrees of freedom (only for family ``"student_t"``).
    """

    family: str
    sigma2: float = 1.0
    shape_s: float | None = None
    dof_nu: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.family == "gg":
            if self.shape_s is None or self.shape_s <= 0:
                raise ValueError("gg noise requires shape_s > 0")
        elif self.shape_s is not None:
            raise ValueError("shape_s only applies to the gg family")
        if self.family == "student_t":
            if self.dof_nu is None or self.dof_nu <= 0:
                raise ValueError("student_t noise requires dof_nu > 0")
        elif self.dof_nu is not None:
            raise ValueError("dof_nu only applies to the student_t family")

    @classmethod
    def gaussian(cls, sigma2: float = 1.0) -> "NoiseModel":
        return cls("gaussian", sigma2=sigma2)

    @classmethod
    def generalized_gaussian(cls, shape_s: float, sigma2: float = 1.0) -> "NoiseModel":
        return cls("gg", sigma2=sigma2, shape_s=shape_s)

    @classmethod
    def student_t(cls, dof_nu: float, sigma2: float = 1.0) -> "NoiseModel":
        return cls("student_t", sigma2=sigma2, dof_nu=dof_nu)


@dataclass(frozen=True, eq=False)
class ChannelVector:
    """Fading channel held fixed over one sensing window.

    The squared norm is pinned to ``rho * p * sigma2`` so that ``rho`` is the
    per-antenna SNR on a linear scale.
    """

    h: np.ndarray
    rho: float
    sigma2: float

    def __post_init__(self):
        target = self.rho * self.p * self.sigma2
        actual = float(np.sum(np.abs(self.h) ** 2))
        if abs(actual - target) > 1e-12 * max(1.0, target):
            raise ValueError(
                f"channel norm mismatch: |h|^2 = {actual}, expected rho*p*sigma2 = {target}"
            )

    @property
    def p(self) -> int:
        return self.h.shape[0]

    @classmethod
    def zero(cls, p: int, sigma2: float = 1.0) -> "ChannelVector":
        """Silent channel (rho = 0); used for null-hypothesis sampling."""
        return cls(h=np.zeros(p, dtype=np.complex128), rho=0.0, sigma2=sigma2)


def gg_scale(p: int, s: float) -> float:
    """Scale b of the generalized Gaussian density generator exp(-d^s / b).

    b = [p * Gamma(p/s) / Gamma((p+1)/s)]^s, the unique choice for which the
    squared radius has mean p.  Evaluated in log space; the Gamma ratio
    overflows for small s otherwise.
    """
    if p < 1 or s <= 0:
        raise ValueError("require p >= 1 and s > 0")
    return float(np.exp(s * (np.log(p) + gammaln(p / s) - gammaln((p + 1) / s))))


def _unit_columns(zr: np.ndarray, zi: np.ndarray):
    """Normalize the columns of z = zr + i*zi along axis -2.

    Returns ``(u, norms)``; a zero-norm column comes out as NaN and is the
    caller's to redraw.  The one definition of the sphere normalization:
    the per-trial sampler and the chunk sampler both call it.
    """
    z = np.multiply(zi, 1j)
    z += zr
    norms = np.linalg.norm(z, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= norms[..., None, :]
    return z, norms


def sample_complex_sphere(p: int, rng, size: int | None = None) -> np.ndarray:
    """Draw unit vectors uniformly on the complex p-sphere.

    Returns shape (p,) for ``size=None`` and (p, size) otherwise.  Columns are
    i.i.d., unit-norm, and rotation invariant.
    """
    if p < 1:
        raise ValueError("dimension p must be at least 1")
    gen = _as_generator(rng)
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValueError("size must be at least 1")
    zr, zi = gen.standard_normal((p, m)), gen.standard_normal((p, m))
    u, norms = _unit_columns(zr, zi)
    while np.any(norms == 0.0):  # probability-zero event; redraw those columns
        dead = norms == 0.0
        k = int(dead.sum())
        zr[:, dead], zi[:, dead] = gen.standard_normal((p, k)), gen.standard_normal((p, k))
        u, norms = _unit_columns(zr, zi)
    return u[:, 0] if size is None else u


def _texture_draws(model: NoiseModel, p: int, gen, g: np.ndarray, w: np.ndarray | None) -> None:
    """Make one call's raw texture draws, in stream order, into ``g`` and ``w``.

    ``g`` receives standard Gamma draws (shape p/s for gg, p otherwise);
    ``w``, given only for student_t, then receives chi-square draws.
    """
    gen.standard_gamma(p / model.shape_s if model.family == "gg" else p, out=g)
    if w is not None:
        w[...] = gen.chisquare(model.dof_nu, size=w.shape)


def _texture_law(model: NoiseModel, p: int, g: np.ndarray, w: np.ndarray | None):
    """Elementwise map from raw texture draws to sigma2 * Q (see sample_texture)."""
    if model.family == "gaussian":
        q = g
    elif model.family == "gg":
        s = model.shape_s
        q = (gg_scale(p, s) * g) ** (1.0 / s)
    else:
        nu = model.dof_nu
        if nu > 2:
            q = (nu - 2.0) * g / w
        else:
            warnings.warn(
                f"student_t texture with dof_nu={nu} <= 2 has no covariance; "
                "using the unnormalized scatter convention",
                RuntimeWarning,
            )
            q = nu * g / w
    return model.sigma2 * q


def sample_texture(model: NoiseModel, p: int, rng, size: int | None = None):
    """Draw the squared-radius texture Q for one CES family.

    Families and their laws (sigma2 factored out):

    * gaussian:   Q ~ Gamma(p, 1)
    * gg:         Q = (b * G)^(1/s) with G ~ Gamma(p/s, 1) and b = gg_scale(p, s)
    * student_t:  Q = (nu - 2) * Gamma(p, 1) / chi2_nu for nu > 2; for
      nu <= 2 the covariance does not exist and the unnormalized scatter
      convention Q = nu * Gamma(p, 1) / chi2_nu is used with a warning.

    Each law satisfies E[Q] = p * sigma2 whenever the mean exists, so the
    implied covariance equals sigma2 times the scatter matrix.
    """
    if p < 1:
        raise ValueError("dimension p must be at least 1")
    gen = _as_generator(rng)
    g = np.empty(() if size is None else size)
    w = np.empty_like(g) if model.family == "student_t" else None
    _texture_draws(model, p, gen, g, w)
    return _texture_law(model, p, g, w)


def sample_ces(scatter: np.ndarray, model: NoiseModel, n: int, rng) -> np.ndarray:
    """Draw n i.i.d. CES columns with the given scatter matrix.

    Each column is sqrt(Q) * L * u with L the Cholesky factor of ``scatter``.
    Draw order per call: all textures first, then all sphere vectors.
    Raises ``numpy.linalg.LinAlgError`` when ``scatter`` is not positive
    definite and ``ValueError`` when it is not Hermitian.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    scatter = np.asarray(scatter, dtype=np.complex128)
    if scatter.ndim != 2 or scatter.shape[0] != scatter.shape[1]:
        raise ValueError("scatter must be a square matrix")
    if not np.allclose(scatter, scatter.conj().T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(scatter).max())):
        raise ValueError("scatter must be Hermitian")
    p = scatter.shape[0]
    chol = np.linalg.cholesky(scatter)
    gen = _as_generator(rng)
    q = np.atleast_1d(sample_texture(model, p, gen, size=n))
    u = sample_complex_sphere(p, gen, size=n)
    x = chol @ (u * np.sqrt(q))
    while np.any(np.all(x == 0.0, axis=0)):  # texture underflow guard
        dead = np.all(x == 0.0, axis=0)
        k = int(dead.sum())
        q_new = np.atleast_1d(sample_texture(model, p, gen, size=k))
        u_new = sample_complex_sphere(p, gen, size=k)
        x[:, dead] = chol @ (u_new * np.sqrt(q_new))
    return x


def make_channel(p: int, rho: float, sigma2: float, rng) -> ChannelVector:
    """Draw a channel with uniform direction and exact squared norm rho*p*sigma2."""
    if p < 1:
        raise ValueError("dimension p must be at least 1")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    gen = _as_generator(rng)
    direction = sample_complex_sphere(p, gen)
    h = np.sqrt(rho * p * sigma2) * direction
    return ChannelVector(h=h, rho=rho, sigma2=sigma2)


def sample_hypothesis(
    model: NoiseModel,
    channel: ChannelVector,
    hypothesis: Hypothesis,
    n: int,
    rng,
) -> np.ndarray:
    """Draw a p x n sample matrix under the null or alternative hypothesis.

    Under H0 every column is pure CES noise with scatter ``sigma2 * I``.
    Under H1 each column is s(i) * h + z(i) with i.i.d. unit-variance complex
    Gaussian symbols s(i) and the channel held constant across all columns.
    Draw order under H1: the noise matrix first, then the symbol vector.
    """
    gen = _as_generator(rng)
    p = channel.p
    if abs(channel.sigma2 - model.sigma2) > 1e-12 * model.sigma2:
        raise ValueError("channel and noise model disagree on sigma2")
    noise = sample_ces(np.eye(p), model, n, gen)
    if hypothesis is Hypothesis.H0:
        return noise
    symbols = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / np.sqrt(2.0)
    return channel.h[:, None] * symbols[None, :] + noise


def sample_trial(
    model: NoiseModel,
    p: int,
    n: int,
    rho: float,
    hypothesis: Hypothesis,
    stream: RngStream,
) -> np.ndarray:
    """Draw one Monte Carlo trial's p x n sample matrix from its own stream.

    Under H1 the channel comes first (``make_channel``), under H0 the
    channel is silent; then ``sample_hypothesis``.  This is the stream
    contract (README, ``robustsense.sampling``) as per-trial code;
    ``sample_chunk`` reproduces it byte for byte.
    """
    gen = stream.generator()
    if hypothesis is Hypothesis.H1:
        channel = make_channel(p, rho, model.sigma2, gen)
    else:
        channel = ChannelVector.zero(p, model.sigma2)
    return sample_hypothesis(model, channel, hypothesis, n, gen)


def sample_chunk(
    model: NoiseModel,
    p: int,
    n: int,
    rho: float,
    hypothesis: Hypothesis,
    master_seed: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Sample trials [lo, hi) as an (hi - lo, p, n) stack, byte-equal to
    ``sample_trial(..., RngStream(master_seed, t))`` for every trial t.

    Phase 1 builds each trial's stream and makes only its raw draws, in the
    order of the stream contract (README, ``robustsense.sampling``), into
    chunk-wide buffers.  Phase 2 applies the texture law, the sphere
    normalization and the signal model once to the whole chunk, with the
    same elementwise operations as the per-trial path (the identity
    scatter's Cholesky factor is left out; multiplying by it changes no
    bit).  A trial that hit a probability-zero event (zero channel or
    sphere norm, all-zero noise column) is redrawn by ``sample_trial``,
    which owns the redraw loops.
    """
    m = hi - lo
    h1 = hypothesis is Hypothesis.H1
    g = np.empty((m, n))
    w = np.empty((m, n)) if model.family == "student_t" else None
    zr, zi = np.empty((m, p, n)), np.empty((m, p, n))
    if h1:
        cr, ci = np.empty((m, p, 1)), np.empty((m, p, 1))
        sr, si = np.empty((m, n)), np.empty((m, n))
    for j, t in enumerate(range(lo, hi)):
        gen = RngStream(master_seed, t).generator()
        if h1:
            gen.standard_normal(out=cr[j])
            gen.standard_normal(out=ci[j])
        _texture_draws(model, p, gen, g[j], None if w is None else w[j])
        gen.standard_normal(out=zr[j])
        gen.standard_normal(out=zi[j])
        if h1:
            gen.standard_normal(out=sr[j])
            gen.standard_normal(out=si[j])

    # the raw-draw buffers are dropped as soon as they are consumed
    q = _texture_law(model, p, g, w)
    del g, w
    x, norms = _unit_columns(zr, zi)
    del zr, zi
    guard = np.any(norms == 0.0, axis=1)
    x *= np.sqrt(q)[:, None, :]
    guard |= np.any(~np.any(x, axis=1), axis=1)  # texture underflow
    if h1:
        direction, cnorm = _unit_columns(cr, ci)
        guard |= cnorm[:, 0] == 0.0
        h = np.sqrt(rho * p * model.sigma2) * direction
        symbols = (sr + 1j * si) / np.sqrt(2.0)
        np.add(h * symbols[:, None, :], x, out=x)  # operand order of sample_hypothesis
    for j in np.flatnonzero(guard):
        x[j] = sample_trial(model, p, n, rho, hypothesis, RngStream(master_seed, lo + j))
    return x
