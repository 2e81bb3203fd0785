"""Symmetric interdependent valuation families and the cursed-value transform.

A valuation maps a full signal profile to the item's worth for bidder i.
Three symmetric families are implemented:

* ``WeightedSum(beta)``:   v_i(s) = s_i + beta * sum_{j != i} s_j
* ``MaxSignal()``:         v_i(s) = max_j s_j
* ``ConcaveSum(l, g, h)``: v_i(s) = l(g(s_i) + sum_{j != i} h(s_j)),
  with g, h strictly increasing and l concave increasing, all drawn from a
  closed catalogue of scalar maps so configurations stay serializable.

A bidder who neglects the correlation between opponents' reports and
opponents' signals values the item at the convex combination

    cursed_value = (1 - chi) * v_i(s) + chi * E[v_i(s_i, others drawn fresh)],

where chi in [0, 1] measures how strongly the bidder ignores that link.  The
interim expectation E[v_i(s_i, ...)] depends only on the bidder's own signal
under i.i.d. signals; ``InterimCache`` precomputes it without random draws
(closed form, tail table, or the law of the others' statistic).

The two structural assumptions, single crossing and monotone cursedness, are
checked on sampled profiles drawn in row chunks of bounded size, each chunk
reduced as it is drawn, like the mechanism checks, by ``reports._worst_case``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .reports import CheckReport, _worst_case
from .signals import (
    DiscreteGridIID,
    RandomStream,
    SignalSpace,
    UnsupportedMarginalError,
    _checked_profiles,
    _config_number,
    _draw_spans,
)

__all__ = [
    "ScalarMap",
    "WeightedSum",
    "MaxSignal",
    "ConcaveSum",
    "ValuationModel",
    "InterimCache",
    "make_interim_cache",
    "value",
    "others_stat",
    "value_from_own_and_stat",
    "cursed_value",
    "cursed_value_from_parts",
    "cursed_virtual_value",
    "check_single_crossing",
    "check_cursedness_monotonicity",
    "value_scale",
    "model_from_config",
]

_MAX_EXACT_ENUM = 300_000  # most pairwise sums one exact-law step may form
_LAW_BINS = 4096  # lattice points of the binned law
_MAX_TAIL_KNOTS = 4097  # trapezoid knots of the continuous MaxSignal tail table
_CHUNK_CELLS = 4_000_000  # most float cells one row chunk of a memory-bounding loop holds
_FORK_CELLS = 32_000_000  # fewest float cells of a ``_chunked`` call that fans out into forked parts


@dataclass(frozen=True)
class ScalarMap:
    """One scalar map from the closed catalogue {identity, affine, power, log1p_scaled}."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(x) for x in self.params))
        if not np.isfinite(self.params).all():
            raise ValueError(f"scalar map parameters must be finite, got {self.params}")
        if self.kind == "identity":
            if self.params:
                raise ValueError("identity takes no parameters")
        elif self.kind == "affine":
            a, _b = self.params
            if a <= 0:
                raise ValueError("affine slope must be positive")
        elif self.kind == "power":
            (p,) = self.params
            if p <= 0:
                raise ValueError("power exponent must be positive")
        elif self.kind == "log1p_scaled":
            (scale,) = self.params
            if scale <= 0:
                raise ValueError("log1p scale must be positive")
        else:
            raise ValueError(f"unknown scalar map {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x
        if self.kind == "affine":
            a, b = self.params
            return a * x + b
        if self.kind == "power":
            (p,) = self.params
            return np.power(x, p)
        (scale,) = self.params
        return scale * np.log1p(x)

    @property
    def is_concave(self) -> bool:
        if self.kind in ("identity", "affine", "log1p_scaled"):
            return True
        return self.params[0] <= 1.0


@dataclass(frozen=True)
class WeightedSum:
    """v_i(s) = s_i + beta * sum of the others; beta in (0, 1] is the supported class.

    Larger beta is accepted so tests can inject models that violate single
    crossing; the single-crossing checker flags them.
    """

    beta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class MaxSignal:
    """v_i(s) = max_j s_j (pure common value)."""


@dataclass(frozen=True)
class ConcaveSum:
    """v_i(s) = l(g(s_i) + sum_{j != i} h(s_j)) with concave increasing l."""

    l: ScalarMap
    g: ScalarMap
    h: ScalarMap

    def __post_init__(self):
        if not self.l.is_concave:
            raise ValueError("outer map l must be concave")


ValuationModel = Union[WeightedSum, MaxSignal, ConcaveSum]


def model_from_config(cfg: dict) -> ValuationModel:
    cfg = dict(cfg)
    family = cfg.pop("family")
    if family == "weighted_sum":
        out = WeightedSum(beta=_config_number(cfg.pop("beta", 1.0), "beta"))
    elif family == "max_signal":
        out = MaxSignal()
    elif family == "concave_sum":
        out = ConcaveSum(
            l=_map_from_config(cfg.pop("l")),
            g=_map_from_config(cfg.pop("g")),
            h=_map_from_config(cfg.pop("h")),
        )
    else:
        raise ValueError(f"unknown valuation family {family!r}")
    if cfg:
        raise ValueError(f"unknown model keys: {sorted(cfg)}")
    return out


def _map_from_config(cfg: dict) -> ScalarMap:
    cfg = dict(cfg)
    params = tuple(_config_number(p, "scalar map parameter") for p in cfg.pop("params", ()))
    out = ScalarMap(kind=cfg.pop("kind"), params=params)
    if cfg:
        raise ValueError(f"unknown scalar map keys: {sorted(cfg)}")
    return out


# ---------------------------------------------------------------------------
# Evaluation helpers.  The mechanisms module evaluates v(t, s_{-i}) for many
# candidate own-signals t against fixed others, so the others enter only
# through a per-model sufficient statistic.
# ---------------------------------------------------------------------------


def others_stat(model: ValuationModel, others: np.ndarray) -> np.ndarray:
    """Reduce others' signals (last axis) to the statistic v needs."""
    others = np.asarray(others, dtype=float)
    if isinstance(model, WeightedSum):
        return others.sum(axis=-1)
    if isinstance(model, MaxSignal):
        return others.max(axis=-1)
    return model.h(others).sum(axis=-1)


def value_from_own_and_stat(model: ValuationModel, own, stat):
    """v_i given the bidder's own signal and the others' statistic (broadcasts)."""
    own = np.asarray(own, dtype=float)
    stat = np.asarray(stat, dtype=float)
    if isinstance(model, WeightedSum):
        return own + model.beta * stat
    if isinstance(model, MaxSignal):
        return np.maximum(own, stat)
    return model.l(model.g(own) + stat)


def profile_stats(model: ValuationModel, profiles: np.ndarray) -> np.ndarray:
    """others_stat for every agent at once, shape like ``profiles``.

    Avoids materializing per-agent others matrices: for each row, column i
    holds the statistic of the row with entry i removed.
    """
    profiles = np.asarray(profiles, dtype=float)
    if isinstance(model, WeightedSum):
        return profiles.sum(axis=-1, keepdims=True) - profiles
    if isinstance(model, MaxSignal):
        return _max_excluding_self(profiles)
    h_vals = model.h(profiles)
    return h_vals.sum(axis=-1, keepdims=True) - h_vals


def _max_excluding_self(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(rows)
    top = rows.max(axis=1)
    second = np.partition(rows, rows.shape[1] - 2, axis=1)[:, -2]
    at_top = rows == top[:, None]
    unique_top = at_top.sum(axis=1) == 1
    # only the holder of a unique maximum sees the second-highest signal
    return np.where(at_top & unique_top[:, None], second[:, None], top[:, None])


def value(model: ValuationModel, profile: np.ndarray, i: int):
    """v_i at one profile (shape (n,)) or a batch (shape (N, n))."""
    profile = np.asarray(profile, dtype=float)
    own = profile[..., i]
    others = np.delete(profile, i, axis=-1)
    return value_from_own_and_stat(model, own, others_stat(model, others))


def value_scale(model: ValuationModel, space: SignalSpace) -> float:
    """v at the all-s_bar profile; the natural scale for tolerances."""
    top = np.full(space.n, space.s_bar)
    return float(value(model, top, 0))


# ---------------------------------------------------------------------------
# Interim expectation over others' signals.
# ---------------------------------------------------------------------------


@dataclass
class InterimCache:
    """Precomputed s -> E[v(s, fresh others)] for one (space, model) pair.

    WeightedSum has a closed form (any marginal).  MaxSignal reads
    s + E[(M - s)^+], M the others' maximum, off one non-increasing tail table:
    knotted at the atoms of a discrete grid, where linear interpolation is
    exact, and trapezoids on a dense grid for continuous marginals.  The
    concave-sum family averages v(s, .) over the law of the others' statistic
    (``_stat_law``): an exact law at the query points, a binned one on a table.
    """

    space: SignalSpace
    model: ValuationModel
    _mode: str
    _grid_s: Optional[np.ndarray] = None
    _grid_mu: Optional[np.ndarray] = None
    _law: Optional[tuple] = None

    def expected_value(self, s):
        """E over fresh others of v(s, others); vectorized in s."""
        s = np.asarray(s, dtype=float)
        model, space = self.model, self.space
        if self._mode == "weighted_sum":
            return s + model.beta * (space.n - 1) * space.mean_signal()
        if self._mode == "max_tail":
            return s + np.interp(s, self._grid_s, self._grid_mu)
        if self._mode == "exact_law":
            return _law_mean(model, s, *self._law)
        return np.interp(s, self._grid_s, self._grid_mu)


def make_interim_cache(space: SignalSpace, model: ValuationModel) -> InterimCache:
    marginal = space.marginal
    k = space.n - 1
    if isinstance(model, WeightedSum):
        return InterimCache(space, model, _mode="weighted_sum")

    if isinstance(model, MaxSignal):
        # E[max(s, M)] = s + integral_s^{s_bar} (1 - F(t)^k) dt, tabulated from the top
        if isinstance(marginal, DiscreteGridIID):
            # 1 - F(t)^k is constant between atoms, so left sums on the atoms
            # (and 0) are exact and the integral is linear between them
            knots = _sorted_unique(np.concatenate(([0.0], marginal.atoms())))
            seg = (1.0 - marginal.cdf(knots[:-1]) ** k) * np.diff(knots)
        else:
            knots = np.linspace(0.0, space.s_bar, _MAX_TAIL_KNOTS)
            surv = 1.0 - marginal.cdf(knots) ** k
            seg = 0.5 * (surv[1:] + surv[:-1]) * np.diff(knots)
        tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        return InterimCache(space, model, _mode="max_tail", _grid_s=knots, _grid_mu=tail)

    # g and h increase and own signals are searched from 0, so l's smallest argument is g(0) + k h(0)
    lowest = float(model.g(0.0) + k * model.h(0.0))
    if (model.l.kind == "power" and lowest < 0.0) or (model.l.kind == "log1p_scaled" and lowest <= -1.0):
        raise ValueError(f"l = {model.l.kind} is undefined at g(0) + (n - 1) h(0) = {lowest:g}")
    law, exact = _stat_law(space, model)
    if exact:
        return InterimCache(space, model, _mode="exact_law", _law=law)
    grid_s = np.linspace(0.0, space.s_bar, 512)  # a binned law is read off a table
    return InterimCache(space, model, _mode="law_table", _grid_s=grid_s, _grid_mu=_law_mean(model, grid_s, *law))


def _stat_law(space: SignalSpace, model: ConcaveSum):
    """((atoms, weights), exact) of the others' statistic S' = sum_{j != i} h(s_j):
    exact on a grid while the merged counts are exact (m^k <= 2^53) and no step
    forms over ``_MAX_EXACT_ENUM`` sums, else binned and raised to the k-th
    power by one real FFT."""
    marginal, k = space.marginal, space.n - 1
    if isinstance(marginal, DiscreteGridIID):
        x, inv = np.unique(model.h(marginal.atoms()), return_inverse=True)
        p = np.bincount(inv).astype(float)
        atoms, counts = np.zeros(1), np.ones(1)
        for _ in range(k):
            if len(marginal.points) ** k > 2**53 or atoms.size * x.size > _MAX_EXACT_ENUM:
                break
            atoms, inv = np.unique((atoms[:, None] + x).ravel(), return_inverse=True)
            counts = np.bincount(inv, (counts[:, None] * p).ravel())
        else:
            return (atoms, counts / counts.sum()), True
    else:  # h at 2^16 quantile midpoints
        x, p = model.h(marginal.quantile((np.arange(1 << 16) + 0.5) / (1 << 16))), np.ones(1 << 16)
    h0, h1 = float(model.h(0.0)), float(model.h(space.s_bar))
    size = k * (_LAW_BINS - 1) + 1  # the k-fold sum's lattice points; zero padding avoids wrap-around
    spectrum = np.fft.rfft(_linear_bins(x, p / p.sum(), h0, h1), 1 << (size - 1).bit_length()) ** k
    pmf = np.clip(np.fft.irfft(spectrum)[:size], 0.0, None)
    if size > _LAW_BINS:
        pmf = _linear_bins(np.linspace(k * h0, k * h1, size), pmf, k * h0, k * h1)
    return (np.linspace(k * h0, k * h1, _LAW_BINS), pmf), False


def _linear_bins(x, p, lo: float, hi: float) -> np.ndarray:
    """Masses p at x split linearly onto _LAW_BINS points spanning [lo, hi]; keeps mass and mean."""
    pos = np.clip((x - lo) * ((_LAW_BINS - 1) / (hi - lo)), 0.0, _LAW_BINS - 1)
    j = np.minimum(pos.astype(int), _LAW_BINS - 2)
    return np.bincount(j, p * (j + 1 - pos), _LAW_BINS) + np.bincount(j + 1, p * (pos - j), _LAW_BINS)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` of a non-empty 1-D array, without the ``numpy.ma`` import numpy's path makes."""
    x = np.sort(x)
    return x[np.r_[True, x[1:] != x[:-1]]]


def _row_spans(N: int, width: int) -> list:
    """Consecutive slices of ``range(N)`` of at most ``_CHUNK_CELLS // width`` rows
    (one at least): the chunks of a loop that holds ``width`` float cells per row."""
    if N < 0:
        raise ValueError("count must be non-negative")
    step = max(1, _CHUNK_CELLS // width)
    return [slice(start, min(start + step, N)) for start in range(0, N, step)]


def _cpus() -> int:
    """The CPUs in this process's affinity mask, which ``taskset`` narrows (1 without one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_in_part = False  # True in a process that ``_forked`` started


def _may_fork() -> bool:
    """Whether a call may fan out into forked parts: only the outermost call
    does, and only while it is the one live Python thread (an estimator's
    thread never is), so no part forks again and no thread exists at a fork."""
    import multiprocessing

    return not _in_part and threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


def _run_part(conn, part) -> None:
    """In a forked process: run ``part()``, then send (None, its return value),
    or (the exception that stopped it, None), pickled, through ``conn``.  Any
    other failure, such as a result or an exception that cannot be pickled,
    ends the process without a message."""
    global _in_part
    _in_part = True
    try:
        result = part()
    except Exception as exc:
        conn.send((exc, None))
    else:
        conn.send((None, result))


def _forked(parts) -> list:
    """Run each zero-argument callable of ``parts`` in its own forked process,
    and return their return values, in part order, when all have finished.

    Each process sends back its return value, pickled, or its exception
    through a one-way pipe, so a result should be small.  The first failed
    part's exception, in part order, is raised again here, and a process that
    ends without a message, such as one whose result cannot be pickled, is a
    RuntimeError with its exit code.  On any error every process is killed;
    none outlives the call.  What a part changes outside itself is lost unless
    it is shared memory or a file.  Forked, not spawned: a spawned process
    imports numpy again (~0.2 s), and a part is a closure, which only a fork
    hands over without pickling.
    """
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    children = []  # (process, receiving end of its pipe) per part
    try:
        for part in parts:
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_part, args=(send, part), daemon=True)
            child.start()
            send.close()  # before the next fork, so the pipe ends when its process does
            children.append((child, receive))
        results = []
        for child, receive in children:
            try:
                error, result = receive.recv()
            except EOFError:
                child.join()
                error = RuntimeError(f"a forked part died with exit code {child.exitcode}")
            if error is not None:
                raise error
            results.append(result)
    except BaseException:
        for child, _receive in children:
            child.kill()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return results


def _chunked(fn, width: int, *arrays) -> np.ndarray:
    """``fn`` over the ``_row_spans`` of the equal-length ``arrays``, joined;
    each chunk's temporaries are freed before the next is built.

    A call of more than one chunk and at least ``_FORK_CELLS`` cells (rows
    times ``width``), when ``_may_fork``, splits the rows by stride into
    W = min(CPUs, chunks) parts, rows k, k + W, ... in part k, so rows sorted
    by cost share the work evenly.  Below that size a fork and the page faults
    that follow it cost about what a second CPU saves: on 2 CPUs the threshold
    optimizer's calls of 4-16M cells ran no faster forked, and those of 61M
    took 25-40% less time.  Each part copies its rows into contiguous arrays,
    as the inline loop's chunks are, runs the same chunk loop over them in a
    forked process and writes into a shared anonymous ``mmap``; the caller
    waits and returns a copy.  ``fn`` must give each row a result that
    depends on that row alone, so the result does not depend on W.
    """
    N = len(arrays[0])
    parts = min(_cpus(), len(_row_spans(N, width))) if N * width >= _FORK_CELLS else 1
    if parts < 2 or not _may_fork():
        out = np.empty(N)
        _chunk_loop(fn, width, out, arrays)
        return out
    import mmap

    out = np.frombuffer(mmap.mmap(-1, 8 * N), dtype=float)  # anonymous, shared with the forked parts
    _forked([
        lambda k=k: _chunk_loop(fn, width, out[k::parts], [np.ascontiguousarray(a[k::parts]) for a in arrays])
        for k in range(parts)
    ])
    return out.copy()


def _chunk_loop(fn, width: int, out: np.ndarray, arrays) -> None:
    """Fill ``out`` with ``fn`` over the ``_row_spans`` of ``arrays``."""
    for rows in _row_spans(len(out), width):
        out[rows] = fn(*(a[rows] for a in arrays))


def _law_mean(model: ConcaveSum, s: np.ndarray, atoms: np.ndarray, weights: np.ndarray):
    """weights @ l(g(s) + atoms), the mean of v(s, S') over the law of S'; summed
    per row, not by BLAS, so a point's result does not depend on the batch."""
    mean = lambda x: (model.l(model.g(x)[:, None] + atoms) * weights).sum(axis=1)
    return _chunked(mean, 2 * len(atoms), s.ravel()).reshape(s.shape)  # per atom: l's argument, its weighted l


def cursed_value(cache: InterimCache, chi: float, profile: np.ndarray, i: int):
    """(1 - chi) * v_i(s) + chi * interim value at s_i, for a profile (n,) or batch (N, n);
    chi outside [0, 1], a width other than n or a signal not in [0, s_bar] is a ValueError."""
    _check_chi(chi)
    profile = np.asarray(profile, dtype=float)
    _checked_profiles(profile, cache.space)
    v = value(cache.model, profile, i)
    mu = cache.expected_value(profile[..., i])
    return cursed_value_from_parts(v, mu, chi)


def cursed_value_from_parts(v, mu, chi: float):
    """Convex combination written as v + chi*(mu - v) so chi=0 is exact."""
    return v + chi * (np.asarray(mu) - np.asarray(v))


def _check_chi(chi: float):
    if not (0.0 <= chi <= 1.0):
        raise ValueError(f"chi must lie in [0, 1], got {chi}")


def cursed_virtual_value(cache: InterimCache, chi: float, s_own, stat):
    """Cursed value minus its own-signal slope times the inverse hazard rate.

    Vectorized over the own signal and the others' statistic (see
    ``others_stat``), which broadcast against each other.  Needs a marginal
    with a density and own signals in [0, s_bar] where it is positive (a
    ValueError otherwise); the slope is analytic for WeightedSum and a central
    finite difference (one-sided at the support edges) otherwise.
    """
    _check_chi(chi)
    space, model = cache.space, cache.model
    if not space.marginal.has_density:
        raise UnsupportedMarginalError("cursed virtual value needs a density")
    f = space.marginal.pdf(s_own)
    if not np.all(f > 0.0):  # every pdf is 0 outside [0, s_bar] and at NaN
        raise ValueError(f"own signals outside the marginal's support: {s_own}")

    def vchi(t):
        return cursed_value_from_parts(
            value_from_own_and_stat(model, t, stat), cache.expected_value(t), chi
        )

    if isinstance(model, WeightedSum):
        deriv = 1.0  # both v and the interim expectation have unit slope in s_i
    else:
        h = 1e-5 * space.s_bar
        lo = np.maximum(0.0, s_own - h)
        hi = np.minimum(space.s_bar, s_own + h)
        deriv = (vchi(hi) - vchi(lo)) / (hi - lo)
    F = space.marginal.cdf(s_own)
    return vchi(s_own) - deriv * (1.0 - F) / f


# ---------------------------------------------------------------------------
# Structural predicates.
# ---------------------------------------------------------------------------


def check_single_crossing(
    model: ValuationModel,
    space: SignalSpace,
    sample_count: int = 10_000,
    stream: RandomStream = RandomStream(7),
) -> CheckReport:
    """Sampled check that the higher-signal bidder has the weakly higher value."""
    tol = 1e-12 * max(value_scale(model, space), 1.0)
    n = space.n

    def runs():  # per pair: the mask, value gap, masked gap and slack
        for rows in _draw_spans(space, stream, _row_spans(sample_count, 4 * n * n)):
            vals = np.stack([value(model, rows, i) for i in range(n)], axis=1)
            # gap[r, i, j] = v_j - v_i over the ordered pairs i != j with s_i >= s_j
            pairs = (rows[:, :, None] >= rows[:, None, :]) & ~np.eye(n, dtype=bool)
            gap = np.where(pairs, vals[:, None, :] - vals[:, :, None], -np.inf).reshape(len(rows), -1)
            pair = gap.argmax(axis=1)
            yield gap.max(axis=1), lambda k: {"profile": rows[k].tolist(), "pair": list(divmod(int(pair[k]), n))}

    return _worst_case("single_crossing", runs(), tol, sample_count)


def single_crossing_holds(model: ValuationModel, space: SignalSpace) -> bool:
    """Analytic where available, sampled otherwise."""
    if isinstance(model, WeightedSum):
        return model.beta <= 1.0
    if isinstance(model, MaxSignal):
        return True
    # l increasing => single crossing iff g - h is non-decreasing
    grid = np.linspace(0.0, space.s_bar, 4097)
    diff = model.g(grid) - model.h(grid)
    return bool(np.all(np.diff(diff) >= -1e-12))


def check_cursedness_monotonicity(
    cache: InterimCache,
    sample_count: int = 10_000,
    stream: RandomStream = RandomStream(11),
) -> CheckReport:
    """If overestimation occurs at some winning own-signal, it must persist when
    the others' signals shrink coordinate-wise (any winning own-signal).

    Overestimation means v < interim, which holds or fails alike for every
    chi > 0, so the check takes no chi.  WeightedSum and MaxSignal hold
    analytically; concave-sum instances are decided empirically: the others of
    each sampled profile that is overestimated somewhere are shrunk by 8
    uniform factor draws, and each shrink's margin is the largest v - interim
    over the own signals that beat the shrunk maximum.
    """
    model, space = cache.model, cache.space
    if isinstance(model, (WeightedSum, MaxSignal)):
        return CheckReport(
            name="cursedness_monotonicity",
            max_violation=0.0,
            tolerance=0.0,
            samples_checked=0,
            note="analytic",
        )

    tol = 1e-12 * max(value_scale(model, space), 1.0)
    own_grid = np.linspace(0.0, space.s_bar, 33)
    mu = cache.expected_value(own_grid)
    gen = stream.generator()  # the shrink factors, drawn in row order across the runs

    def overestimated(rows):  # at some winning own signal below s_bar
        wins = (own_grid > rows.max(axis=1, keepdims=True)) & (own_grid < space.s_bar)
        return (wins & (value_from_own_and_stat(model, own_grid, others_stat(model, rows)[:, None]) < mu)).any(axis=1)

    def runs():  # per (shrink, own signal): the win mask, v, v - interim, the masked margin
        for rows in _draw_spans(space, stream.child(1), _row_spans(sample_count, 4 * 8 * own_grid.size)):
            others = rows[overestimated(rows[:, 1:]), 1:]
            # each such row's others shrunk coordinate-wise 8 times; d = v - interim
            # at every own signal that beats the shrunk maximum, -inf elsewhere
            shrunk = others[:, None, :] * gen.random((len(others), 8, space.n - 1))
            d = np.where(
                own_grid > shrunk.max(axis=2, keepdims=True),
                value_from_own_and_stat(model, own_grid, others_stat(model, shrunk)[..., None]) - mu,
                -np.inf,
            )
            own = own_grid[d.argmax(axis=2)]
            yield d.max(axis=2), lambda k: {
                "others": others[k // 8].tolist(), "shrunk": shrunk[k // 8, k % 8].tolist(), "own": float(own.flat[k])
            }

    return _worst_case("cursedness_monotonicity", runs(), tol, sample_count)
