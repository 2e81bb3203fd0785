import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from cursed_auctions import valuations
from cursed_auctions.signals import (
    DiscreteGridIID,
    GenericIID,
    RandomStream,
    SignalSpace,
    UniformIID,
    UnsupportedMarginalError,
    sample_profiles,
)
from cursed_auctions.valuations import (
    ConcaveSum,
    MaxSignal,
    ScalarMap,
    WeightedSum,
    check_cursedness_monotonicity,
    check_single_crossing,
    cursed_value,
    cursed_virtual_value,
    make_interim_cache,
    model_from_config,
    value,
    value_scale,
)

IDENTITY = ScalarMap("identity")
LOG1P = ScalarMap("log1p_scaled", (1.0,))


def wallet_cache():
    return make_interim_cache(SignalSpace(2, UniformIID(100.0)), WeightedSum(1.0))


class TestValue:
    def test_wallet_sum(self):
        assert value(WeightedSum(1.0), np.array([30.0, 15.0]), 0) == 45.0

    def test_max_signal(self):
        prof = np.array([0.2, 0.7, 0.4])
        for i in range(3):
            assert value(MaxSignal(), prof, i) == 0.7

    def test_weighted_sum_beta_half(self):
        np.testing.assert_allclose(value(WeightedSum(0.5), np.array([0.5, 0.2, 0.2]), 0), 0.7)

    def test_batch_rows(self):
        profs = np.array([[30.0, 15.0], [10.0, 20.0]])
        np.testing.assert_allclose(value(WeightedSum(1.0), profs, 0), [45.0, 30.0])

    def test_concave_sum(self):
        model = ConcaveSum(l=ScalarMap("log1p_scaled", (2.0,)), g=IDENTITY, h=ScalarMap("power", (2.0,)))
        got = value(model, np.array([0.5, 0.3, 0.4]), 0)
        np.testing.assert_allclose(got, 2.0 * np.log1p(0.5 + 0.09 + 0.16))

    def test_zero_profile_normalized(self):
        for model in (WeightedSum(0.7), MaxSignal(), ConcaveSum(LOG1P, IDENTITY, IDENTITY)):
            assert value(model, np.zeros(3), 0) == 0.0


class TestInterim:
    def test_wallet_mu(self):
        assert wallet_cache().expected_value(30.0) == 80.0

    def test_weighted_sum_closed_form_tight(self):
        cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        np.testing.assert_allclose(cache.expected_value(0.5), 1.0, atol=1e-9)

    def test_max_signal_against_quadrature(self):
        cache = make_interim_cache(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        oracle, _ = integrate.quad(lambda t: max(t, 0.5), 0.0, 1.0)
        np.testing.assert_allclose(cache.expected_value(0.5), oracle, atol=1e-4)
        np.testing.assert_allclose(cache.expected_value(0.5), 0.625, atol=1e-4)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_max_signal_closed_form_family(self, n):
        cache = make_interim_cache(SignalSpace(n, UniformIID(1.0)), MaxSignal())
        s = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(
            cache.expected_value(s), (n - 1) / n + s**n / n, atol=1e-4
        )

    def test_mu_dominates_value_at_zero_others(self):
        for model in (WeightedSum(0.5), MaxSignal(), ConcaveSum(LOG1P, IDENTITY, IDENTITY)):
            space = SignalSpace(3, UniformIID(1.0))
            cache = make_interim_cache(space, model)
            s = np.linspace(0.0, 1.0, 33)
            zeros = np.zeros((33, 2))
            v_alone = np.array([value(model, np.concatenate(([x], z)), 0) for x, z in zip(s, zeros)])
            assert np.all(cache.expected_value(s) >= v_alone - 1e-9)

    def test_mu_monotone(self):
        for model in (MaxSignal(), ConcaveSum(LOG1P, IDENTITY, IDENTITY)):
            cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), model)
            mu = cache.expected_value(np.linspace(0, 1, 257))
            assert np.all(np.diff(mu) >= -1e-12)

    def test_concave_sum_grid_enumeration_matches_direct(self):
        space = SignalSpace(3, DiscreteGridIID(points=(0.0, 0.5, 1.0)))
        model = ConcaveSum(l=LOG1P, g=IDENTITY, h=IDENTITY)
        cache = make_interim_cache(space, model)
        pts = [0.0, 0.5, 1.0]
        direct = np.mean([np.log1p(0.5 + a + b) for a in pts for b in pts])
        np.testing.assert_allclose(cache.expected_value(0.5), direct, rtol=1e-12)


class TestConcaveSumInterimReference:
    """The law-based ConcaveSum interim against scipy quadrature at n = 2 and 3,
    relative to ``value_scale``."""

    L2 = ConcaveSum(ScalarMap("power", (0.5,)), ScalarMap("power", (2.0,)), ScalarMap("power", (2.0,)))
    LOG = ConcaveSum(LOG1P, IDENTITY, ScalarMap("power", (0.5,)))
    MARGINALS = {"u1": UniformIID(1.0), "u2": UniformIID(2.0), "power": GenericIID("power", (2.0, 1.0))}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("marginal", sorted(MARGINALS))
    @pytest.mark.parametrize("model", ["l2", "log1p"])
    def test_matches_quadrature(self, model, marginal, n):
        model_obj = self.L2 if model == "l2" else self.LOG
        tol = 1e-6 if model == "log1p" else 3e-4 if marginal == "power" else 1e-4
        space = SignalSpace(n, self.MARGINALS[marginal])
        # u = t**2 smooths the sqrt endpoint of h(quantile(u)) for the quadrature
        h_at = lambda t: float(model_obj.h(space.marginal.quantile(t * t)))
        s = np.linspace(0.0, space.s_bar, 13 if n == 2 else 7)
        want = []
        for x in s:
            gx = float(model_obj.g(x))
            if n == 2:
                ref = integrate.quad(lambda t: 2 * t * float(model_obj.l(gx + h_at(t))), 0.0, 1.0, epsabs=1e-11, limit=200)
            else:
                f = lambda t, r: 4 * t * r * float(model_obj.l(gx + h_at(t) + h_at(r)))
                ref = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
            want.append(ref[0])
        got = make_interim_cache(space, model_obj).expected_value(s)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * value_scale(model_obj, space))


class TestCursedValue:
    def test_chi_zero_is_exact_identity(self):
        cache = wallet_cache()
        profiles = sample_profiles(cache.space, RandomStream(5), 200)
        v = value(cache.model, profiles, 0)
        assert np.array_equal(cursed_value(cache, 0.0, profiles, 0), v)

    def test_fully_cursed_ignores_others(self):
        cache = wallet_cache()
        assert cursed_value(cache, 1.0, np.array([30.0, 90.0]), 0) == 80.0
        assert cursed_value(cache, 1.0, np.array([30.0, 5.0]), 0) == 80.0

    def test_halfway(self):
        cache = wallet_cache()
        np.testing.assert_allclose(cursed_value(cache, 0.5, np.array([30.0, 90.0]), 0), 100.0)

    def test_chi_domain_error(self):
        cache = wallet_cache()
        with pytest.raises(ValueError):
            cursed_value(cache, 1.2, np.array([30.0, 90.0]), 0)

    @pytest.mark.parametrize(
        "profile",
        [[0.5, np.nan, 0.1], [0.5, np.inf, 0.1], [0.5, -0.1, 0.1], [1.5, 0.2, 0.1], [0.5, 0.1], [0.5, 0.1, 0.2, 0.3]],
        ids=["nan", "inf", "negative", "above_s_bar", "width_2", "width_4"],
    )
    def test_bad_profiles_rejected(self, profile):
        cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        for batch in (np.array(profile), np.array([[0.2] * len(profile), profile])):
            with pytest.raises(ValueError):
                cursed_value(cache, 0.5, batch, 0)

    def test_support_edges_accepted(self):
        cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        assert cursed_value(cache, 1.0, np.array([0.0, 1.0, 1.0]), 0) == 0.5

    def test_monotone_in_all_signals(self):
        cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        profiles = sample_profiles(cache.space, RandomStream(9), 100)
        base = cursed_value(cache, 0.6, profiles, 0)
        for j in range(3):
            bumped = profiles.copy()
            bumped[:, j] = np.minimum(1.0, bumped[:, j] + 1e-4)
            moved = cursed_value(cache, 0.6, bumped, 0)
            assert np.all(moved >= base - 1e-12)
            if j == 0:
                changed = bumped[:, 0] > profiles[:, 0]
                assert np.all(moved[changed] > base[changed])

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        st.floats(0.0, 1.0),
    )
    @example(chi1=1.0, chi2=0.5, others=[1.0, 2.220446049250313e-16], s_own=0.9363245127760742)
    def test_overestimation_sign_is_chi_free(self, chi1, chi2, others, s_own):
        """v - cursed v has the sign of v - mu at every chi > 0, up to rounding:
        v + chi*(mu - v) rounds a step of at most half an ulp back to v, so one
        chi can read 0 where another does not, but the signs never oppose."""
        cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), WeightedSum(0.5))
        prof = np.array([s_own] + others)
        v = value(cache.model, prof, 0)
        mu = cache.expected_value(s_own)
        d1 = v - cursed_value(cache, chi1, prof, 0)
        d2 = v - cursed_value(cache, chi2, prof, 0)
        assert np.sign(d1) * np.sign(d2) >= 0
        for chi, d in ((chi1, d1), (chi2, d2)):
            assert d != 0 or chi * abs(mu - v) <= np.spacing(v)


class TestCursedVirtualValue:
    # with two bidders the others' statistic is the other signal itself

    def test_rational_uniform_closed_form(self):
        cache = make_interim_cache(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        got = cursed_virtual_value(cache, 0.0, 0.5, 0.5)
        np.testing.assert_allclose(got, 0.5)  # 2 s + s_other - 1

    def test_fully_cursed_closed_form(self):
        cache = make_interim_cache(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        got = cursed_virtual_value(cache, 1.0, 0.25, 0.9)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)  # 2 s - 0.5

    def test_max_signal_highest(self):
        cache = make_interim_cache(SignalSpace(2, UniformIID(1.0)), MaxSignal())
        got = cursed_virtual_value(cache, 0.0, 0.5, 0.2)
        np.testing.assert_allclose(got, 0.0, atol=1e-4)

    def test_finite_difference_matches_analytic_slope(self):
        cache = make_interim_cache(SignalSpace(2, UniformIID(1.0)), WeightedSum(1.0))
        chi, s, other = 0.7, 0.4, 0.3
        h = 1e-5
        vchi = lambda t: cursed_value(cache, chi, np.array([t, other]), 0)
        fd = (vchi(s + h) - vchi(s - h)) / (2 * h)
        np.testing.assert_allclose(fd, 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "marginal,s_own",
        [(UniformIID(1.0), 1.5), (UniformIID(1.0), float("nan")), (UniformIID(1.0), -0.2),
         (GenericIID("affine", (1.0, 4.0)), 0.5)],
    )
    def test_own_signal_outside_support_rejected(self, marginal, s_own):
        cache = make_interim_cache(SignalSpace(2, marginal), WeightedSum(1.0))
        with pytest.raises(ValueError, match="outside the marginal's support"):
            cursed_virtual_value(cache, 0.5, s_own, 0.5)
        with pytest.raises(ValueError, match="outside the marginal's support"):
            cursed_virtual_value(cache, 0.5, np.array([0.5 * marginal.s_bar, s_own]), 0.5)

    def test_density_free_marginal_rejected(self):
        cache = make_interim_cache(SignalSpace(2, DiscreteGridIID(points=(0.0, 1.0))), WeightedSum(1.0))
        with pytest.raises(UnsupportedMarginalError):
            cursed_virtual_value(cache, 0.5, 0.0, 1.0)


class TestStructuralChecks:
    def test_single_crossing_weighted_sum(self):
        rep = check_single_crossing(WeightedSum(0.5), SignalSpace(3, UniformIID(1.0)), 10_000, RandomStream(7))
        assert rep.passed

    def test_single_crossing_max_signal(self):
        rep = check_single_crossing(MaxSignal(), SignalSpace(3, UniformIID(1.0)), 10_000, RandomStream(7))
        assert rep.passed

    def test_single_crossing_negative_control(self):
        rep = check_single_crossing(WeightedSum(1.5), SignalSpace(3, UniformIID(1.0)), 10_000, RandomStream(7))
        assert not rep.passed
        assert rep.witnesses, "a failing check must carry a witness"

    def test_single_crossing_row_chunks_match_one_chunk(self, monkeypatch):
        space = SignalSpace(30, UniformIID(1.0))
        reports = []
        for cells in (4 * 10**9, 7 * 4 * 30 * 30):  # one chunk, then chunks of 7 rows of 4 n^2 cells
            monkeypatch.setattr(valuations, "_CHUNK_CELLS", cells)
            reports.append(check_single_crossing(WeightedSum(1.5), space, 2000, RandomStream(7)).to_json())
        assert reports[0] == reports[1]
        assert len(reports[0]["witnesses"]) == 5

    def test_cursedness_monotonicity_analytic_families(self):
        for model in (WeightedSum(0.5), MaxSignal()):
            cache = make_interim_cache(SignalSpace(3, UniformIID(1.0)), model)
            rep = check_cursedness_monotonicity(cache)
            assert rep.passed and rep.note == "analytic"

    def test_cursedness_monotonicity_concave_sum_empirical(self):
        cache = make_interim_cache(
            SignalSpace(3, UniformIID(1.0)),
            ConcaveSum(l=LOG1P, g=IDENTITY, h=IDENTITY),
        )
        rep = check_cursedness_monotonicity(cache, sample_count=10_000, stream=RandomStream(11))
        assert rep.samples_checked == 10_000
        assert rep.passed  # frozen verdict for this instance and stream
        again = check_cursedness_monotonicity(cache, sample_count=10_000, stream=RandomStream(11))
        assert again.max_violation == rep.max_violation

    def test_negative_sample_count_rejected(self):
        space = SignalSpace(3, UniformIID(1.0))
        with pytest.raises(ValueError, match="non-negative"):
            check_single_crossing(WeightedSum(0.5), space, -1)
        with pytest.raises(ValueError, match="non-negative"):
            check_cursedness_monotonicity(make_interim_cache(space, ConcaveSum(l=LOG1P, g=IDENTITY, h=IDENTITY)), -1)


class TestRowSpans:
    STEP = valuations._CHUNK_CELLS // 40  # rows of a chunk at width 40

    @pytest.mark.parametrize("N", [0, 1, STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
    def test_cover_every_row_once_in_order(self, N):
        spans = valuations._row_spans(N, 40)
        assert np.array_equal(np.concatenate([np.arange(N)[s] for s in spans] + [np.empty(0, int)]), np.arange(N))
        assert all(0 < s.stop - s.start <= self.STEP for s in spans)
        assert len(spans) == -(-N // self.STEP)

    def test_width_over_the_budget_takes_one_row_per_chunk(self):
        spans = valuations._row_spans(5, valuations._CHUNK_CELLS + 1)
        assert spans == [slice(r, r + 1) for r in range(5)]

    def test_chunked_joins_the_chunks(self, monkeypatch):
        monkeypatch.setattr(valuations, "_cpus", lambda: 1)  # ``calls`` sees the chunks of this process only
        x = np.arange(2 * self.STEP + 3, dtype=float)
        calls = []
        out = valuations._chunked(lambda a, b: calls.append(len(a)) or a - b, 40, x, 2 * x)
        assert np.array_equal(out, -x) and calls == [self.STEP, self.STEP, 3]


class TestSortedUnique:
    @pytest.mark.parametrize(
        "x",
        [[0.0], [0.0, 0.0, 1.0, 0.5, 1.0, 0.25], [0.3, -0.0, 0.0, 0.3], np.linspace(0.0, 1.0, 21)],
        ids=["single", "duplicates", "signed_zeros", "grid"],
    )
    def test_bits_match_numpy_unique(self, x):
        x = np.asarray(x, dtype=float)
        got = valuations._sorted_unique(x)
        assert np.array_equal(got.view(np.int64), np.unique(x).view(np.int64))


class TestModelValidation:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            WeightedSum(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_parameters_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedSum(bad)
        for kind, params in (("affine", (bad, 0.0)), ("affine", (1.0, bad)), ("power", (bad,)), ("log1p_scaled", (bad,))):
            with pytest.raises(ValueError, match="finite"):
                ScalarMap(kind, params)

    def test_outer_map_must_be_concave(self):
        with pytest.raises(ValueError):
            ConcaveSum(l=ScalarMap("power", (2.0,)), g=IDENTITY, h=IDENTITY)

    def test_scalar_map_catalogue_closed(self):
        with pytest.raises(ValueError):
            ScalarMap("exp", ())

    def test_config_parses(self):
        assert model_from_config({"family": "weighted_sum", "beta": 0.5}) == WeightedSum(0.5)
        assert model_from_config({"family": "weighted_sum"}) == WeightedSum(1.0)
        assert model_from_config({"family": "max_signal"}) == MaxSignal()
        cfg = {
            "family": "concave_sum",
            "l": {"kind": "log1p_scaled", "params": [2.0]},
            "g": {"kind": "identity"},
            "h": {"kind": "power", "params": [0.5]},
        }
        assert model_from_config(cfg) == ConcaveSum(ScalarMap("log1p_scaled", (2.0,)), IDENTITY, ScalarMap("power", (0.5,)))
        with pytest.raises(ValueError):
            model_from_config({"family": "weighted_sum", "beta": 0.5, "oops": 1})

    @pytest.mark.parametrize(
        "l, g, h, n, ok",
        [
            ("power", ("affine", (1.0, -1.0)), ("identity", ()), 3, False),  # value would be NaN
            ("power", ("identity", ()), ("identity", ()), 3, True),  # the argument reaches exactly 0
            ("power", ("identity", ()), ("affine", (1.0, -1e-9)), 2, False),
            ("log1p_scaled", ("affine", (1.0, -1.0)), ("identity", ()), 3, False),  # log1p(-1) = -inf
            ("log1p_scaled", ("identity", ()), ("affine", (1.0, -0.4)), 3, True),  # -0.8 > -1
            ("log1p_scaled", ("identity", ()), ("affine", (1.0, -0.4)), 4, False),  # -1.2 at n = 4
            ("affine", ("affine", (1.0, -5.0)), ("affine", (1.0, -5.0)), 3, True),  # l defined everywhere
        ],
    )
    def test_config_outer_domain_checked_against_n(self, l, g, h, n, ok):
        params = {"power": [0.5], "log1p_scaled": [1.0], "affine": [1.0, 0.0]}[l]
        cfg = {
            "family": "concave_sum",
            "l": {"kind": l, "params": params},
            "g": {"kind": g[0], "params": list(g[1])},
            "h": {"kind": h[0], "params": list(h[1])},
        }
        model = model_from_config(cfg)
        space = SignalSpace(n, UniformIID(1.0))
        if ok:
            cache = make_interim_cache(space, model)
            assert np.isfinite(cache.expected_value(np.array([0.0, 0.5, 1.0]))).all()
        else:
            with pytest.raises(ValueError, match="undefined"):
                make_interim_cache(space, model)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "weighted_sum", "beta": "0.5"},
            {"family": "weighted_sum", "beta": False},
            {"family": "concave_sum", "l": {"kind": "log1p_scaled", "params": ["2"]}, "g": {"kind": "identity"},
             "h": {"kind": "identity"}},
        ],
    )
    def test_non_numeric_config_parameters_rejected(self, cfg):
        with pytest.raises(ValueError, match="must be a number"):
            model_from_config(cfg)
