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

import itertools
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
    """``value`` as a Python int (numpy integers pass); anything else is a
    ``ValueError`` naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (master_seed, stream_id).

    Streams sharing a master seed but carrying distinct ids are statistically
    independent; the same pair always reproduces the identical sequence.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = _integer(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.master_seed, self.stream_id))
        )


# numpy's SeedSequence mixing (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier: _stream_states reproduces both as array arithmetic
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """SeedSequence's coercion of a non-negative int: little-endian uint32 words, [0] for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_sequence_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of an
    (m, L) uint32 entropy array, as an (m, 4) uint64 array.

    numpy's mixing and state generation run on whole columns in wrapping
    uint32 arithmetic; the hash constant is a Python int, the same for every row.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    width = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):  # entropy beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


def _stream_states(master_seed: int, lo: int, hi: int):
    """Yield the PCG64 (state, inc) of ``RngStream(master_seed, t).generator()``
    for t in [lo, hi), seeded for the whole range in one array pass.

    The entropy of trial t is the words of (master_seed, t); trials are hashed
    in runs of equal word count (t crosses 2**32, 2**64, ...).  Each trial's
    words (v0, v1, v2, v3) then seed PCG64 as ``pcg64_srandom_r`` does from
    state 0: seed = v0:v1, inc = (v2:v3 << 1) | 1, two LCG steps.
    """
    seed_words = _words(master_seed)
    a = lo
    while a < hi:
        t_width = max(1, -(-a.bit_length() // 32))
        b = min(hi, 1 << 32 * t_width)
        t = np.arange(a, b, dtype=np.uint64 if b <= 1 << 64 else object)
        entropy = np.empty((b - a, len(seed_words) + t_width), dtype=np.uint32)
        entropy[:, :len(seed_words)] = seed_words
        for i in range(t_width):
            entropy[:, len(seed_words) + i] = t >> 32 * i & _MASK32
        for row in _seed_sequence_state(entropy):
            v0, v1, v2, v3 = row.tolist()
            inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
            yield ((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128, inc
        a = b


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

    @classmethod
    def gaussian(cls, sigma2: float = 1.0) -> "NoiseModel":
        return cls("gaussian", sigma2=sigma2)

    @classmethod
    def generalized_gaussian(cls, shape_s: float, sigma2: float = 1.0) -> "NoiseModel":
        return cls("gg", sigma2=sigma2, shape_s=shape_s)

    @classmethod
    def student_t(cls, dof_nu: float, sigma2: float = 1.0) -> "NoiseModel":
        return cls("student_t", sigma2=sigma2, dof_nu=dof_nu)


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


def _unit_columns(z: np.ndarray) -> np.ndarray:
    """Normalize the columns of the complex array z along axis -2 in place
    and return their norms.

    A zero-norm column comes out as NaN and is the caller's to redraw.  The
    one definition of the sphere normalization: the per-trial sampler and
    the chunk sampler both call it.
    """
    norms = np.linalg.norm(z, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= norms[..., None, :]
    return norms


def _texture_draws(model: NoiseModel, p: int, gen, g: np.ndarray, w: np.ndarray | None) -> None:
    """Make one call's raw texture draws, in stream order, into ``g`` and ``w``.

    ``g`` receives standard Gamma draws (shape p/s for gg, p otherwise);
    ``w``, given only for student_t, then receives chi-square draws.
    """
    gen.standard_gamma(p / model.shape_s if model.family == "gg" else p, out=g)
    if w is not None:
        w[...] = gen.chisquare(model.dof_nu, size=w.shape)


def _texture_law(model: NoiseModel, p: int, g: np.ndarray, w: np.ndarray | None):
    """Elementwise map from raw texture draws to sigma2 * Q.

    Families and their laws (sigma2 factored out):

    * gaussian:   Q ~ Gamma(p, 1)
    * gg:         Q = (b * G)^(1/s) with G ~ Gamma(p/s, 1) and b = gg_scale(p, s)
    * student_t:  Q = (nu - 2) * Gamma(p, 1) / chi2_nu for nu > 2; for
      nu <= 2 the covariance does not exist and the unnormalized scatter
      convention Q = nu * Gamma(p, 1) / chi2_nu is used with a warning.

    Each law satisfies E[Q] = p * sigma2 whenever the mean exists.
    """
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
    """(p, m) columns uniform on the complex p-sphere; zero-norm columns are redrawn."""
    raw = gen.standard_normal((2, p, m))
    u = _complex_draws(raw)
    while np.any(dead := _unit_columns(u) == 0.0):
        raw[:, :, dead] = gen.standard_normal((2, p, int(dead.sum())))
        u = _complex_draws(raw)
    return u


def _noise(model: NoiseModel, p: int, gen, m: int) -> np.ndarray:
    """Draw m CES noise columns sqrt(Q) * u: all textures, then all sphere vectors."""
    g = np.empty(m)
    w = np.empty(m) if model.family == "student_t" else None
    _texture_draws(model, p, gen, g, w)
    return _sphere(gen, p, m) * np.sqrt(_texture_law(model, p, g, w))


def _channel(direction: np.ndarray, rho: float, p: int, sigma2: float) -> np.ndarray:
    """Scale unit directions to the channel: ``|h|^2 = rho p sigma2``.

    The one place the SNR convention lives; ``rho`` is the per-antenna SNR.
    """
    return np.sqrt(rho * p * sigma2) * direction


def _symbols(raw: np.ndarray) -> np.ndarray:
    """Unit-variance complex Gaussian symbols from (..., 2, n) real and imaginary draws."""
    return (raw[..., 0, :] + 1j * raw[..., 1, :]) / np.sqrt(2.0)


def _check_geometry(p: int, n: int, rho: float) -> None:
    """The one check of p, n and rho, shared by both samplers and ``SimConfig``."""
    p, n = _integer("p", p), _integer("n", n)
    if p < 1 or n < 1 or not 0 <= rho < np.inf:
        raise ValueError(f"require p >= 1, n >= 1 and a finite rho >= 0, got p={p}, n={n}, rho={rho}")


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
    per-trial code; ``sample_chunk`` reproduces it byte for byte.  Every
    redraw lives here: zero-norm channel or sphere columns and all-zero
    noise columns (texture underflow) are redrawn from the same stream.
    """
    _check_geometry(p, n, rho)
    gen = stream.generator()
    h1 = hypothesis is Hypothesis.H1
    if h1:
        h = _channel(_sphere(gen, p, 1), rho, p, model.sigma2)
    x = _noise(model, p, gen, n)
    while np.any(dead := ~np.any(x, axis=0)):  # texture underflow guard
        x[:, dead] = _noise(model, p, gen, int(dead.sum()))
    if not h1:
        return x
    # symbols as a (1, n) row: numpy rounds a (1, 1) * (1,) complex product
    # differently from (1, 1) * (1, 1), which sample_chunk's shapes match
    return h * _symbols(gen.standard_normal((2, n)))[None, :] + x


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

    Every trial's stream is seeded in one array pass (``_stream_states``),
    and the stack is made in pieces of about ``_PIECE_BYTES``.  For each
    piece, one generator is pointed at each of its trials' states in turn
    and makes only that trial's raw draws, in the order of the stream
    contract (README, ``robustsense.sampling``), into piece-sized buffers:
    one ``standard_normal`` call per complex step, real half first.  Then
    the texture law, the sphere normalization and the signal model run
    once on the whole piece, with the same elementwise operations as the
    per-trial path.  The stack is the only array of chunk size.  A trial
    that hit a probability-zero event (zero channel or sphere norm,
    all-zero noise column) is redrawn by ``sample_trial``, which owns the
    redraw loops.
    """
    _check_geometry(p, n, rho)
    if hi < lo:
        raise ValueError(f"require lo <= hi, got lo={lo}, hi={hi}")
    m = hi - lo
    h1 = hypothesis is Hypothesis.H1
    step = max(1, _PIECE_BYTES // (16 * p * n))  # trials per piece
    k = min(step, m)
    raw, g = np.empty((k, 2, p, n)), np.empty((k, n))
    w = np.empty((k, n)) if model.family == "student_t" else None
    if h1:
        c, s = np.empty((k, 2, p, 1)), np.empty((k, 2, n))
    x = np.empty((m, p, n), dtype=np.complex128)
    guard = np.empty(m, dtype=bool)
    first = RngStream(master_seed, lo)  # its generator is re-pointed at every trial
    gen = first.generator()
    states = _stream_states(first.master_seed, first.stream_id, hi)
    for a in range(0, m, step):
        piece = slice(a, min(a + step, m))
        size = piece.stop - a
        for i, (state, inc) in enumerate(itertools.islice(states, size)):
            gen.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            if h1:
                gen.standard_normal(out=c[i])
            _texture_draws(model, p, gen, g[i], None if w is None else w[i])
            gen.standard_normal(out=raw[i])
            if h1:
                gen.standard_normal(out=s[i])

        xs = _complex_draws(raw[:size], out=x[piece])
        guard[piece] = np.any(_unit_columns(xs) == 0.0, axis=1)
        xs *= np.sqrt(_texture_law(model, p, g[:size], None if w is None else w[:size]))[:, None, :]
        guard[piece] |= np.any(~np.any(xs, axis=1), axis=1)  # texture underflow
        if h1:
            direction = _complex_draws(c[:size])
            guard[piece] |= _unit_columns(direction)[:, 0] == 0.0
            h = _channel(direction, rho, p, model.sigma2)
            np.add(h * _symbols(s[:size])[:, None, :], xs, out=xs)  # operand order of sample_trial
    for j in np.flatnonzero(guard):
        x[j] = sample_trial(model, p, n, rho, hypothesis, RngStream(master_seed, lo + j))
    return x
