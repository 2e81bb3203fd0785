"""I.i.d. signal environments: support, marginal CDF/quantile, reproducible sampling.

Every bidder draws a private signal from a common marginal on [0, s_bar].
Three marginal families are supported:

* ``UniformIID`` -- the uniform distribution on [0, s_bar];
* ``DiscreteGridIID`` -- uniform mass on a finite sorted grid (used by the
  brute-force oracle);
* ``GenericIID`` -- a marginal described by its quantile map, drawn from a
  small closed catalogue (affine => uniform on [low, high], power).

Sampling is counter-based: a ``RandomStream`` is a (seed, stream_index) pair
mapped onto independent Philox streams, so identical inputs always reproduce
identical draws and chunked/parallel consumers cannot collide.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "RandomStream",
    "UniformIID",
    "DiscreteGridIID",
    "GenericIID",
    "Marginal",
    "SignalSpace",
    "sample_profiles",
    "marginal_from_config",
]

# Profiles per internal sampling chunk; chunk c of a stream uses Philox jump
# index stream_index * _STREAM_STRIDE + c, so distinct stream indices never
# share a chunk stream.
_CHUNK = 1 << 16
_STREAM_STRIDE = 1 << 20

# Boundary overshoot up to this size is clamped instead of rejected, to absorb
# float noise from quantile/CDF round trips.
_EDGE_SLACK = 1e-12


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream id; (seed, stream_index) fully determines draws."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 128:  # Philox's key is 128 bits
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.stream_index < 0:
            raise ValueError(f"stream_index must be non-negative, got {self.stream_index}")

    def child(self, offset: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream_index + offset)

    def generator(self, chunk: int = 0) -> Generator:
        jumps = self.stream_index * _STREAM_STRIDE + chunk
        return Generator(Philox(key=self.seed).jumped(jumps))


@dataclass(frozen=True)
class UniformIID:
    """Uniform marginal on [0, s_bar]."""

    s_bar: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.s_bar < np.inf:
            raise ValueError(f"s_bar must be positive and finite, got {self.s_bar}")

    @property
    def has_density(self) -> bool:
        return True

    def cdf(self, t):
        return np.clip(np.asarray(t, dtype=float) / self.s_bar, 0.0, 1.0)

    def quantile(self, p):
        p = _check_prob(p)
        return p * self.s_bar

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.s_bar)
        return np.where(inside, 1.0 / self.s_bar, 0.0)

    def mean(self) -> float:
        return 0.5 * self.s_bar


@dataclass(frozen=True)
class DiscreteGridIID:
    """Uniform mass on a finite sorted grid of points in [0, s_bar].

    Equality and hashing see ``points`` alone; the read-only atom array and
    the mean are derived from it once, at construction."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) == 0:
            raise ValueError("grid must contain at least one point")
        if any(b < a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be sorted ascending")
        if pts[0] < 0 or not np.isfinite(pts).all():
            raise ValueError("grid points must be finite and non-negative")
        atoms = np.asarray(pts, dtype=float)
        atoms.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_mean", float(np.mean(atoms)))

    @property
    def s_bar(self) -> float:
        return self.points[-1] if self.points[-1] > 0 else 1.0

    @property
    def has_density(self) -> bool:
        return False

    def atoms(self) -> np.ndarray:
        return self._atoms

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        counts = np.searchsorted(self._atoms, t + _EDGE_SLACK, side="left")
        return counts / len(self.points)

    def quantile(self, p):
        p = _check_prob(p)
        m = len(self.points)
        # smallest grid point whose CDF reaches p
        idx = np.minimum(np.ceil(p * m - _EDGE_SLACK).astype(int), m) - 1
        idx = np.maximum(idx, 0)
        return self._atoms[idx]

    def pdf(self, t):
        raise UnsupportedMarginalError("discrete grid marginals have no density")

    def mean(self) -> float:
        return self._mean


@dataclass(frozen=True)
class GenericIID:
    """Marginal given by a monotone quantile map from the closed catalogue.

    kind "affine": quantile(u) = low + (high - low) * u, i.e. uniform on
    [low, high] (support upper bound s_bar = high).
    kind "power": quantile(u) = s_bar * u**exponent.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(x) for x in self.params))
        if not np.isfinite(self.params).all():
            raise ValueError(f"quantile parameters must be finite, got {self.params}")
        if self.kind == "affine":
            low, high = self.params
            if not (0 <= low < high):
                raise ValueError("affine quantile needs 0 <= low < high")
        elif self.kind == "power":
            exponent, s_bar = self.params
            if exponent <= 0 or s_bar <= 0:
                raise ValueError("power quantile needs exponent > 0 and s_bar > 0")
        else:
            raise ValueError(f"unknown quantile kind {self.kind!r}")

    @property
    def s_bar(self) -> float:
        return self.params[1]

    @property
    def has_density(self) -> bool:
        return True

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "affine":
            low, high = self.params
            return np.clip((t - low) / (high - low), 0.0, 1.0)
        exponent, s_bar = self.params
        return np.clip(np.power(np.clip(t / s_bar, 0.0, 1.0), 1.0 / exponent), 0.0, 1.0)

    def quantile(self, p):
        p = _check_prob(p)
        if self.kind == "affine":
            low, high = self.params
            return low + (high - low) * p
        exponent, s_bar = self.params
        return s_bar * np.power(p, exponent)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "affine":
            low, high = self.params
            inside = (t >= low) & (t <= high)
            return np.where(inside, 1.0 / (high - low), 0.0)
        exponent, s_bar = self.params
        u = np.clip(t / s_bar, _EDGE_SLACK, 1.0)
        inside = (t >= 0.0) & (t <= s_bar)
        return np.where(inside, np.power(u, 1.0 / exponent - 1.0) / (exponent * s_bar), 0.0)

    def mean(self) -> float:
        if self.kind == "affine":
            low, high = self.params
            return 0.5 * (low + high)
        exponent, s_bar = self.params
        return s_bar / (exponent + 1.0)


Marginal = Union[UniformIID, DiscreteGridIID, GenericIID]


class UnsupportedMarginalError(ValueError):
    """Raised when an operation needs a density the marginal does not have."""


@dataclass(frozen=True)
class SignalSpace:
    """n bidders with i.i.d. signals from a common marginal on [0, s_bar]."""

    n: int
    marginal: Marginal

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two bidders, got n={self.n}")

    @property
    def s_bar(self) -> float:
        return self.marginal.s_bar

    def mean_signal(self) -> float:
        return self.marginal.mean()

    @staticmethod
    def from_config(cfg: dict) -> "SignalSpace":
        cfg = dict(cfg)
        n = _config_number(cfg.pop("n"), "n", integral=True)
        marginal = marginal_from_config(cfg.pop("marginal"))
        if cfg:
            raise ValueError(f"unknown space keys: {sorted(cfg)}")
        return SignalSpace(n=n, marginal=marginal)


def _checked_signals(signals, space: SignalSpace) -> np.ndarray:
    """``signals`` as a float array, after checking that they are finite and in [0, s_bar]."""
    signals = np.asarray(signals, dtype=float)
    if not np.all((signals >= 0.0) & (signals <= space.s_bar)):  # NaN fails both
        raise ValueError(f"signals must be finite and lie in [0, {space.s_bar}]")
    return signals


def _checked_profiles(profiles, space: SignalSpace) -> np.ndarray:
    """Profiles as an (N, n) float array of finite signals in [0, s_bar]."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    if profiles.ndim != 2 or profiles.shape[1] != space.n:
        raise ValueError(f"profiles must have shape (N, {space.n}), got {profiles.shape}")
    return _checked_signals(profiles, space)


def _config_number(value, key: str, integral: bool = False):
    """A number read from a config, as a float or, when ``integral``, an int.

    Booleans and non-numbers (numeric strings included) are rejected, and so
    is a fractional or non-finite value where an integer is due: ``int()``
    would truncate 2.7 to 2 without notice, while 2.0 is accepted as 2.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (integral and value % 1):
        raise ValueError(f"{key} must be {'an integer' if integral else 'a number'}, got {value!r}")
    return int(value) if integral else float(value)


def marginal_from_config(cfg: dict) -> Marginal:
    cfg = dict(cfg)
    kind = cfg.pop("type")
    if kind == "uniform":
        out = UniformIID(s_bar=_config_number(cfg.pop("s_bar", 1.0), "s_bar"))
    elif kind == "grid":
        out = DiscreteGridIID(points=tuple(_config_number(p, "grid point") for p in cfg.pop("points")))
    elif kind == "quantile":
        params = tuple(_config_number(p, "quantile parameter") for p in cfg.pop("params"))
        out = GenericIID(kind=cfg.pop("kind"), params=params)
    else:
        raise ValueError(f"unknown marginal type {kind!r}")
    if cfg:
        raise ValueError(f"unknown marginal keys: {sorted(cfg)}")
    return out


def sample_profiles(space: SignalSpace, stream: RandomStream, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. signal profiles, shape (count, n).

    Row blocks of size 2**16 come from consecutive Philox sub-streams, so the
    result depends only on (seed, stream_index, count) and prefixes agree
    across different counts.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return next(_draw_spans(space, stream, [slice(0, count)]))


def _draw_spans(space: SignalSpace, stream: RandomStream, spans):
    """Yield the profiles of each slice in ``spans``, which must tile the rows
    from the first one's start on, in order: the rows ``sample_profiles`` would
    give, bit for bit.

    Row r is profile r % 2**16 of Philox sub-stream r // 2**16, and one
    generator per sub-stream carries on from span to span, so a span may start
    or stop anywhere.  A generator opened mid sub-stream skips the doubles of
    the rows before: one per signal, and Philox makes 4 per counter step, so
    the skip costs the same at any row.  Only the current span is held.
    """
    gen, chunk, row = None, -1, None
    for span in spans:
        if row is None:
            row = span.start
        if span.start != row:
            raise ValueError(f"spans must tile the rows in order; expected a span from {row}, got {span}")
        out = np.empty((span.stop - row, space.n), dtype=float)
        while row < span.stop:
            if row // _CHUNK != chunk:
                chunk = row // _CHUNK
                gen = stream.generator(chunk)
                skip = (row - chunk * _CHUNK) * space.n
                if skip:
                    gen.bit_generator.advance(skip // 4)
                    gen.random(skip % 4)
            stop = min(span.stop, (chunk + 1) * _CHUNK)
            out[row - span.start : stop - span.start] = space.marginal.quantile(gen.random((stop - row, space.n)))
            row = stop
        yield out


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < -_EDGE_SLACK) or np.any(p > 1.0 + _EDGE_SLACK):
        raise ValueError("probability out of [0, 1]")
    return np.clip(p, 0.0, 1.0)
