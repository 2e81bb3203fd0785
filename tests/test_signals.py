import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cursed_auctions.signals import (
    DiscreteGridIID,
    GenericIID,
    RandomStream,
    SignalSpace,
    UniformIID,
    _draw_spans,
    marginal_from_config,
    sample_profiles,
)


def test_sample_profile_bounds_and_length():
    space = SignalSpace(3, UniformIID(1.0))
    prof = sample_profiles(space, RandomStream(7, 0), 1)[0]
    assert prof.shape == (3,)
    assert np.all((prof >= 0) & (prof <= 1))


def test_sample_grid_support_membership():
    space = SignalSpace(2, DiscreteGridIID(points=(0.0, 1.0)))
    prof = sample_profiles(space, RandomStream(3, 5), 1)[0]
    assert set(prof) <= {0.0, 1.0}


def test_sampling_deterministic_and_stream_sensitive():
    space = SignalSpace(4, UniformIID(1.0))
    a = sample_profiles(space, RandomStream(7, 1), 100)
    b = sample_profiles(space, RandomStream(7, 1), 100)
    c = sample_profiles(space, RandomStream(7, 2), 100)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_sample_prefix_stable_across_counts():
    space = SignalSpace(2, UniformIID(1.0))
    short = sample_profiles(space, RandomStream(0), 10)
    long = sample_profiles(space, RandomStream(0), 1000)
    np.testing.assert_array_equal(short, long[:10])



def _sample_profiles_reference(space, stream, count):
    """``sample_profiles`` before it drew through ``_draw_spans``: one quantile
    call per 2**16-row sub-stream block, kept as the reference for its bits."""
    out = np.empty((count, space.n), dtype=float)
    for chunk, start in enumerate(range(0, count, 1 << 16)):
        stop = min(start + (1 << 16), count)
        out[start:stop] = space.marginal.quantile(stream.generator(chunk).random((stop - start, space.n)))
    return out


def _spans(count, cuts):
    """Consecutive slices of range(count) cut at the ``cuts`` below ``count``."""
    edges = [0] + [c for c in cuts if 0 < c < count] + [count]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class TestDrawSpansDifferential:
    """``_draw_spans`` and ``sample_profiles`` give the reference's bits for any
    tiling of the rows, sub-stream boundaries included."""

    B = 1 << 16  # rows per Philox sub-stream

    @pytest.mark.parametrize(
        "marginal",
        [UniformIID(2.0), DiscreteGridIID(points=(0.0, 0.25, 0.5, 1.0)), GenericIID("power", (0.5, 3.0))],
        ids=["uniform", "grid", "quantile"],
    )
    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1])
    @pytest.mark.parametrize(
        "cuts",
        [
            [],  # one span
            [1, 2, B - 2, B - 1, B, B + 1],  # 1-row spans at the start and around the boundary
            [3, 50_000],  # the last span crosses the boundary
        ],
        ids=["whole", "single-rows", "crossing"],
    )
    def test_bits_match_reference(self, marginal, count, cuts):
        space, stream = SignalSpace(3, marginal), RandomStream(11, 2)
        ref = _sample_profiles_reference(space, stream, count)
        spans = _spans(count, cuts)
        blocks = list(_draw_spans(space, stream, spans))
        assert [len(b) for b in blocks] == [s.stop - s.start for s in spans]
        got = np.concatenate(blocks)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(sample_profiles(space, stream, count).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "marginal",
        [UniformIID(2.0), DiscreteGridIID(points=(0.0, 0.25, 0.5, 1.0)), GenericIID("power", (0.5, 3.0))],
        ids=["uniform", "grid", "quantile"],
    )
    @pytest.mark.parametrize("n", [2, 3, 25])  # the doubles skipped before a row take every residue mod 4
    @pytest.mark.parametrize("start", [1, 2, 3, B - 1, B, B + 1])
    def test_first_span_may_start_at_any_row(self, marginal, n, start):
        """The rows from ``start`` on, in spans that cross the next sub-stream
        boundary, are the reference's rows."""
        space, stream = SignalSpace(n, marginal), RandomStream(11, 2)
        boundary = (start // self.B + 1) * self.B
        stop = boundary + 2
        edges = sorted({start, start + 1, boundary - 1, boundary + 1, stop})
        spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
        got = np.concatenate(list(_draw_spans(space, stream, spans)))
        ref = _sample_profiles_reference(space, stream, stop)[start:]
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "spans",
        [[slice(0, 2), slice(3, 5)], [slice(0, 3), slice(0, 3)], [slice(1, 4), slice(5, 6)], [slice(4, 6), slice(2, 4)]],
    )
    def test_spans_must_tile_in_order(self, spans):
        with pytest.raises(ValueError, match="tile"):
            list(_draw_spans(SignalSpace(2, UniformIID(1.0)), RandomStream(0), spans))

def test_uniform_cdf_values():
    assert UniformIID(1.0).cdf(0.25) == 0.25
    assert UniformIID(100.0).cdf(50.0) == 0.5
    assert UniformIID(1.0).cdf(-0.1) == 0.0
    assert UniformIID(1.0).cdf(1.7) == 1.0


def test_quantile_values():
    assert UniformIID(1.0).quantile(0.5) == 0.5
    assert UniformIID(1.0).quantile(0.0) == 0.0
    assert GenericIID("affine", (1.0, 4.0)).quantile(0.5) == 2.5


def test_quantile_domain_error():
    with pytest.raises(ValueError):
        UniformIID(1.0).quantile(1.5)
    with pytest.raises(ValueError):
        UniformIID(1.0).quantile(-0.2)


@pytest.mark.parametrize(
    "marginal",
    [UniformIID(1.0), DiscreteGridIID(points=(0.0, 0.25, 0.5, 0.75, 1.0)), GenericIID("affine", (1.0, 4.0))],
)
def test_quantile_cdf_consistency(marginal):
    for p in np.linspace(0.0, 1.0, 11):
        q = marginal.quantile(p)
        assert marginal.cdf(q) >= p - 1e-12
        if p > 0 and q > 0:
            assert marginal.cdf(q - 1e-9 * marginal.s_bar) < p + 1e-9


def test_uniform_empirical_cdf_ks_distance():
    space = SignalSpace(2, UniformIID(1.0))
    samples = sample_profiles(space, RandomStream(123), 50_000).ravel()
    stat = stats.kstest(samples, space.marginal.cdf).statistic
    assert stat < 0.01


def test_grid_empirical_frequencies():
    pts = (0.0, 0.5, 1.0)
    space = SignalSpace(2, DiscreteGridIID(points=pts))
    samples = sample_profiles(space, RandomStream(11), 50_000).ravel()
    for p in pts:
        assert abs(np.mean(samples == p) - 1 / 3) < 0.01


class TestDiscreteGridAtoms:
    """The grid's atoms and mean are built once, read-only, and give the
    formulas written against the points tuple bit for bit."""

    GRIDS = {
        "single": (0.4,),
        "duplicates": (0.0, 0.25, 0.25, 0.25, 1.0),
        "eleven": tuple(np.linspace(0.0, 2.5, 11)),
    }

    def test_atoms_read_only(self):
        atoms = DiscreteGridIID(self.GRIDS["eleven"]).atoms()
        with pytest.raises(ValueError):
            atoms[0] = 1.0

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_tuple_formulas(self, name):
        points = self.GRIDS[name]
        marg, ref_atoms, m = DiscreteGridIID(points), np.asarray(points, dtype=float), len(points)
        t = np.concatenate([ref_atoms + d for d in (0.0, -1e-13, 1e-13, -1e-9)] + [np.linspace(-0.1, 2.6, 55)])
        ref_cdf = np.searchsorted(ref_atoms, t + 1e-12, side="left") / m
        np.testing.assert_array_equal(marg.cdf(t).view(np.int64), ref_cdf.view(np.int64))
        assert marg.cdf(float(t[0])) == ref_cdf[0]
        p = np.concatenate([np.linspace(0.0, 1.0, 41), np.arange(m + 1) / m])
        ref_idx = np.maximum(np.minimum(np.ceil(p * m - 1e-12).astype(int), m) - 1, 0)
        np.testing.assert_array_equal(marg.quantile(p).view(np.int64), ref_atoms[ref_idx].view(np.int64))
        assert marg.quantile(0.5) == ref_atoms[ref_idx[20]]
        assert np.float64(marg.mean()).view(np.int64) == np.float64(np.mean(ref_atoms)).view(np.int64)

    def test_equal_grids_compare_and_hash_equal(self):
        a, b = DiscreteGridIID((0.0, 0.5, 1.0)), DiscreteGridIID([0, 0.5, 1])
        a.cdf(0.5), a.mean()  # reading a grid leaves its identity alone
        assert a == b and hash(a) == hash(b)
        assert a != DiscreteGridIID((0.0, 0.5))
        assert SignalSpace(2, a) == SignalSpace(2, b) and hash(SignalSpace(2, a)) == hash(SignalSpace(2, b))
        from cursed_auctions.oracle import GridModel
        from cursed_auctions.valuations import WeightedSum

        g, h = (GridModel(n=2, m=11, model=WeightedSum(1.0), chi=0.5) for _ in range(2))
        assert g == h and hash(g) == hash(h) and hash(g.space()) == hash(h.space())


def test_power_quantile_marginal():
    marg = GenericIID("power", (2.0, 1.0))
    # quantile u**2 => cdf sqrt(t)
    assert marg.quantile(0.25) == 0.0625
    np.testing.assert_allclose(marg.cdf(0.25), 0.5)
    np.testing.assert_allclose(marg.mean(), 1.0 / 3.0)


def test_power_pdf_zero_outside_support():
    marg = GenericIID("power", (2.0, 1.0))
    np.testing.assert_array_equal(marg.pdf([-0.2, 1.5, np.nan]), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(marg.cdf([-0.2, 1.5]), [0.0, 1.0])
    inside = np.array([0.0, 0.25, 1.0])  # t = 0 reads the density at the clipped 1e-12
    np.testing.assert_array_equal(marg.pdf(inside), np.power(np.clip(inside, 1e-12, 1.0), -0.5) / 2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_quantile_monotone(p1, p2):
    marg = UniformIID(2.0)
    lo, hi = sorted([p1, p2])
    assert marg.quantile(lo) <= marg.quantile(hi) + 1e-12


def test_space_validation():
    with pytest.raises(ValueError):
        SignalSpace(1, UniformIID(1.0))
    with pytest.raises(ValueError):
        UniformIID(0.0)
    with pytest.raises(ValueError):
        DiscreteGridIID(points=(0.5, 0.2))


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: UniformIID(bad),
        lambda bad: DiscreteGridIID(points=(0.0, 0.5, bad)),
        lambda bad: DiscreteGridIID(points=(bad,)),
        lambda bad: GenericIID("affine", (0.0, bad)),
        lambda bad: GenericIID("power", (bad, 1.0)),
        lambda bad: GenericIID("power", (1.0, bad)),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_marginal_parameters_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_marginal_config_parses():
    assert marginal_from_config({"type": "uniform", "s_bar": 2.0}) == UniformIID(2.0)
    assert marginal_from_config({"type": "uniform"}) == UniformIID(1.0)
    assert marginal_from_config({"type": "grid", "points": [0.0, 1]}) == DiscreteGridIID(points=(0.0, 1.0))
    got = marginal_from_config({"type": "quantile", "kind": "affine", "params": [1.0, 4.0]})
    assert got == GenericIID("affine", (1.0, 4.0))
    space = SignalSpace.from_config({"n": 3.0, "marginal": {"type": "uniform", "s_bar": 1}})
    assert space == SignalSpace(3, UniformIID(1.0)) and isinstance(space.n, int)
    with pytest.raises(ValueError):
        marginal_from_config({"type": "uniform", "s_bar": 1.0, "bogus": 1})
    with pytest.raises(ValueError):
        SignalSpace.from_config({"n": 2, "marginal": {"type": "uniform"}, "extra": 0})


@pytest.mark.parametrize(
    "cfg",
    [
        {"n": 2.7, "marginal": {"type": "uniform"}},
        {"n": "3", "marginal": {"type": "uniform"}},
        {"n": True, "marginal": {"type": "uniform"}},
        {"n": float("inf"), "marginal": {"type": "uniform"}},
        {"n": 3, "marginal": {"type": "uniform", "s_bar": "2"}},
        {"n": 3, "marginal": {"type": "grid", "points": [0.0, "1"]}},
        {"n": 3, "marginal": {"type": "quantile", "kind": "power", "params": ["2", 1.0]}},
    ],
)
def test_non_numeric_or_fractional_space_config_rejected(cfg):
    with pytest.raises(ValueError, match="must be"):
        SignalSpace.from_config(cfg)
