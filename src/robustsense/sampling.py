"""Complex elliptically symmetric (CES) noise generation and the rank-one
signal model used by multi-antenna detectors.

A noise column is x = sqrt(Q) * u, with ``Q`` a positive random texture and
``u`` uniform on the complex unit sphere; texture laws are normalized so that
``E[x x^H] = sigma2 * I`` whenever the covariance exists.  Under H1 every
column adds ``h * s`` for a channel ``h`` fixed over the trial and i.i.d.
unit-variance complex Gaussian symbols ``s``.  ``sample_trial`` and
``sample_chunk`` are the stream contract (README) and share every draw step.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

FAMILIES = ("gaussian", "gg", "student_t")
# bytes of the complex stack that ``sample_chunk`` makes in one piece
_PIECE_BYTES = 1 << 20


class Hypothesis(Enum):
    """Null (noise only) versus alternative (signal present)."""

    H0 = 0
    H1 = 1


def _integer(name: str, value) -> int:
    """``value`` as a Python int (numpy integers pass); anything else, a
    bool included, is a ``ValueError`` naming the field."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (master_seed, stream_id).

    A Philox4x64 counter-based stream (Salmon et al., SC 2011): the key is
    ``SeedSequence(master_seed).generate_state(2, np.uint64)`` and the
    counter starts at (0, 0, 0, stream_id).  Philox carries from the lowest
    counter word up, so distinct ids are 2**192 blocks apart and never
    overlap; the same pair always reproduces the identical sequence.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = _integer(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        if self.stream_id >= 1 << 64:
            raise ValueError(f"stream_id must be below 2**64, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence(self.master_seed).generate_state(2, np.uint64)
        bit_generator = np.random.Philox(key=key)
        bit_generator.state = _philox_state(key.tolist(), self.stream_id)
        return np.random.Generator(bit_generator)


def _philox_state(key: list[int], t: int) -> dict:
    """The Philox state at the start of stream ``t`` under ``key``: counter
    (0, 0, 0, t) and an empty output buffer.  Python ints keep the state
    setter cheap; ``sample_chunk`` re-points one generator per trial with it."""
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, t], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


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
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.family == "gg":
            if self.shape_s is None or not 0 < self.shape_s < np.inf:
                raise ValueError(f"gg noise requires a finite shape_s > 0, got {self.shape_s}")
        elif self.shape_s is not None:
            raise ValueError("shape_s only applies to the gg family")
        if self.family == "student_t":
            if self.dof_nu is None or not 0 < self.dof_nu < np.inf:
                raise ValueError(f"student_t noise requires a finite dof_nu > 0, got {self.dof_nu}")
        elif self.dof_nu is not None:
            raise ValueError("dof_nu only applies to the student_t family")


def gg_scale(p: int, s: float) -> float:
    """Scale b of the generalized Gaussian density generator exp(-d^s / b).

    b = [p * Gamma(p/s) / Gamma((p+1)/s)]^s, the unique choice for which the
    squared radius has mean p.  Evaluated in log space with ``math.lgamma``;
    the Gamma ratio overflows for small s otherwise.
    """
    if p < 1 or not 0 < s < np.inf:
        raise ValueError(f"require p >= 1 and a finite s > 0, got p={p}, s={s}")
    return float(np.exp(s * (np.log(p) + math.lgamma(p / s) - math.lgamma((p + 1) / s))))


def _complex_draws(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """z = raw[..., 0, :, :] + i*raw[..., 1, :, :] from one complex step's
    real and imaginary draws, written into ``out`` when it is given."""
    z = np.multiply(raw[..., 1, :, :], 1j, out=out)
    z += raw[..., 0, :, :]
    return z


def _unit_columns(z: np.ndarray) -> None:
    """Normalize the columns of the complex array z along axis -2 in place.

    A zero-norm column comes out as NaN, which ``_check_sample`` refuses.
    The one definition of the sphere normalization: the per-trial sampler
    and the chunk sampler both call it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= np.linalg.norm(z, axis=-2)[..., None, :]


def _texture_draws(model: NoiseModel, p: int, gen, t: np.ndarray) -> None:
    """Make one call's raw texture draws, in stream order, into the (..., 2, m)
    buffer ``t``: standard Gamma draws (shape p/s for gg, p otherwise) into
    row 0, then, for student_t only, chi-square draws into row 1."""
    gen.standard_gamma(p / model.shape_s if model.family == "gg" else p, out=t[..., 0, :])
    if model.family == "student_t":
        t[..., 1, :] = gen.chisquare(model.dof_nu, size=t[..., 1, :].shape)


def _texture_law(model: NoiseModel, p: int, t: np.ndarray):
    """Elementwise map from the raw texture draws ``t`` to sigma2 * Q.

    Families and their laws (sigma2 factored out):

    * gaussian:   Q ~ Gamma(p, 1)
    * gg:         Q = (b * G)^(1/s) with G ~ Gamma(p/s, 1) and b = gg_scale(p, s)
    * student_t:  Q = (nu - 2) * Gamma(p, 1) / chi2_nu for nu > 2; for
      nu <= 2 the covariance does not exist and the unnormalized scatter
      convention Q = nu * Gamma(p, 1) / chi2_nu is used with a warning.

    Each law satisfies E[Q] = p * sigma2 whenever the mean exists.
    """
    g, w = t[..., 0, :], t[..., 1, :]
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


def _sphere(gen, p: int, m: int) -> np.ndarray:
    """(p, m) columns uniform on the complex p-sphere; a zero-norm column is NaN."""
    u = _complex_draws(gen.standard_normal((2, p, m)))
    _unit_columns(u)
    return u


def _noise(model: NoiseModel, p: int, gen, m: int) -> np.ndarray:
    """Draw m CES noise columns sqrt(Q) * u: all textures, then all sphere vectors."""
    t = np.empty((2, m))
    _texture_draws(model, p, gen, t)
    return _sphere(gen, p, m) * np.sqrt(_texture_law(model, p, t))


def _channel(direction: np.ndarray, rho: float, p: int, sigma2: float) -> np.ndarray:
    """Scale unit directions to the channel: ``|h|^2 = rho p sigma2``.

    The one place the SNR convention lives; ``rho`` is the per-antenna SNR.
    """
    return np.sqrt(rho * p * sigma2) * direction


def _check_geometry(p: int, n: int, rho: float) -> None:
    """The one check of p, n and rho, shared by both samplers and ``SimConfig``."""
    p, n = _integer("p", p), _integer("n", n)
    if p < 1 or n < 1 or not 0 <= rho < np.inf:
        raise ValueError(f"require p >= 1, n >= 1 and a finite rho >= 0, got p={p}, n={n}, rho={rho}")


def _check_sample(finite, live, model: NoiseModel, rho: float) -> None:
    """The samplers' one output check: a ``ValueError`` naming the model and
    rho when a sample is not finite (an overflow, or a zero-norm draw's NaN)
    or a noise column, before the signal is added, is all zero (an underflow)."""
    if not finite:
        raise ValueError(f"{model} with rho={rho} overflows the sampler: a sample is not finite")
    if not live:
        raise ValueError(f"{model} with rho={rho} underflows the sampler: a noise column is zero")


def sample_trial(
    model: NoiseModel,
    p: int,
    n: int,
    rho: float,
    hypothesis: Hypothesis,
    stream: RngStream,
) -> np.ndarray:
    """Draw one Monte Carlo trial's p x n sample matrix from its own stream.

    Under H0 every column is CES noise with covariance ``sigma2 * I``; under
    H1 column i is ``h * s(i) + z(i)`` with a uniformly directed channel
    ``h`` and i.i.d. unit-variance complex Gaussian symbols.  Draw order:
    under H1 the channel direction, the noise textures and sphere vectors,
    under H1 the symbols.  This is the stream contract (README) as
    per-trial code, one fixed sequence of draws; ``sample_chunk``
    reproduces it byte for byte.  A sample that is not finite, or has an
    all-zero noise column, is a ``ValueError`` (``_check_sample``).
    """
    _check_geometry(p, n, rho)
    gen = stream.generator()
    h1 = hypothesis is Hypothesis.H1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        if h1:
            h = _channel(_sphere(gen, p, 1), rho, p, model.sigma2)
        x = _noise(model, p, gen, n)
        live = np.any(x, axis=0).all()
        if h1:
            # unit-variance symbols as a (1, n) row: numpy rounds a (1, 1) * (1,)
            # complex product differently from (1, 1) * (1, 1), which
            # sample_chunk's shapes match
            x = h * (_complex_draws(gen.standard_normal((2, 1, n))) / np.sqrt(2.0)) + x
    _check_sample(np.isfinite(x).all(), live, model, rho)
    return x


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

    The stack is made in pieces of about ``_PIECE_BYTES``.  For each piece,
    one generator is pointed at each of its trials' streams in turn (the
    run's Philox key, the trial index as the counter; ``_philox_state``)
    and makes only that trial's raw draws, in the order of the stream
    contract (README, ``robustsense.sampling``), into piece-sized buffers:
    one ``standard_normal`` call per complex step, real half first.  Then
    the texture law, the sphere normalization and the signal model run
    once on the whole piece, with the same elementwise operations as the
    per-trial path.  The stack is the only array of chunk size.  Each
    piece passes ``sample_trial``'s output check before the next is drawn.
    """
    _check_geometry(p, n, rho)
    lo, hi = _integer("lo", lo), _integer("hi", hi)
    if not 0 <= lo <= hi <= 1 << 64:  # the last trial's id must fit the counter word
        raise ValueError(f"require 0 <= lo <= hi <= 2**64, got lo={lo}, hi={hi}")
    m = hi - lo
    h1 = hypothesis is Hypothesis.H1
    step = max(1, _PIECE_BYTES // (16 * p * n))  # trials per piece
    k = min(step, m)
    raw, t = np.empty((k, 2, p, n)), np.empty((k, 2, n))
    if h1:
        c, s = np.empty((k, 2, p, 1)), np.empty((k, 2, 1, n))
    x = np.empty((m, p, n), dtype=np.complex128)
    gen = RngStream(master_seed).generator()  # re-pointed at every trial
    bit_generator = gen.bit_generator
    key = bit_generator.state["state"]["key"].tolist()
    for a in range(0, m, step):
        piece = slice(a, min(a + step, m))
        size = piece.stop - a
        for i in range(size):
            bit_generator.state = _philox_state(key, lo + a + i)
            if h1:
                gen.standard_normal(out=c[i])
            _texture_draws(model, p, gen, t[i])
            gen.standard_normal(out=raw[i])
            if h1:
                gen.standard_normal(out=s[i])

        xs = _complex_draws(raw[:size], out=x[piece])
        _unit_columns(xs)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
            xs *= np.sqrt(_texture_law(model, p, t[:size]))[:, None, :]
            live = np.any(xs, axis=1).all()
            if h1:
                direction = _complex_draws(c[:size])
                _unit_columns(direction)
                h = _channel(direction, rho, p, model.sigma2)
                symbols = _complex_draws(s[:size]) / np.sqrt(2.0)
                np.add(h * symbols, xs, out=xs)  # operand order of sample_trial
        _check_sample(np.isfinite(xs).all(), live, model, rho)
    return x
