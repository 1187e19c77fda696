import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay import decay
from groupdecay.decay import (
    DecayParams,
    FitConfig,
    FitError,
    curve_values,
    default_weights,
    fit,
    objective_and_gradient,
    objective_value,
    parse_fit,
    serialize_fit,
)
from groupdecay.partition import GroupErrorRecord
from oracles import per_mask_solve_a, per_start_fit


def _params(a0=1.0, a_half=0.0, a1=0.0, a2=0.0, a3=0.0, b=(1.0,), c=(0.0,)):
    return DecayParams(
        a0=a0, a_half=a_half, a1=a1, a2=a2, a3=a3,
        b=np.asarray(b, dtype=float), c=np.asarray(c, dtype=float),
    )


class TestDecayParams:
    def test_parameter_count_is_2j_plus_5(self):
        for J in (1, 10, 100):
            p = _params(b=np.ones(J), c=np.zeros(J))
            assert p.to_vector().shape == (2 * J + 5,)


class TestEvalCurve:
    def test_constant_when_basis_weights_zero(self):
        p = _params(c=(0.17,))
        for n in (0, 1, 10, 1e6):
            assert float(curve_values(p, n, groups=0)) == pytest.approx(0.17)

    def test_inverse_sqrt_value(self):
        p = _params(a_half=1.0, b=(1.0,), c=(0.1,))
        assert float(curve_values(p, 4.0, groups=0)) == pytest.approx(0.6)

    def test_clamped_below_one_mass(self):
        p = _params(a_half=1.0, b=(1.0,), c=(0.0,))
        assert float(curve_values(p, 0.0, groups=0)) == float(curve_values(p, 1.0, groups=0))
        assert float(curve_values(p, 0.5, groups=0)) == float(curve_values(p, 1.0, groups=0))

    def test_reporting_clamp(self):
        p = _params(a_half=5.0, b=(1.0,), c=(0.0,))
        assert float(curve_values(p, 1.0, groups=0)) == 5.0
        assert float(curve_values(p, 1.0, clamp=True, groups=0)) == 1.0

    def test_monotone_and_convex_for_random_nonnegative_params(self):
        # finite differences on a geometric grid over n >= 1
        rng = np.random.default_rng(0)
        grid = np.geomspace(1.0, 1e4, 60)
        for _ in range(1000):
            p = _params(
                a0=rng.uniform(1e-4, 2.0),
                a_half=rng.uniform(0, 2),
                a1=rng.uniform(0, 2),
                a2=rng.uniform(0, 2),
                a3=rng.uniform(0, 2),
                b=(rng.uniform(0, 1),),
                c=(rng.uniform(0, 0.5),),
            )
            e = curve_values(p, grid[:, None])[:, 0]
            diff = np.diff(e)
            assert (diff <= 1e-12).all()
            second = np.diff(e) / np.diff(grid)
            assert (np.diff(second) >= -1e-12).all()


class TestDefaultWeights:
    def _records(self, errors, val_mass):
        errors = np.asarray(errors, dtype=float)
        T, J = errors.shape
        return [
            GroupErrorRecord(
                t,
                train_mass=np.full(J, 10.0 * (t + 1)),
                val_error=errors[t],
                val_mass=np.asarray(val_mass, dtype=float),
            )
            for t in range(T)
        ]

    def test_group_weight_capped_at_100(self):
        recs = self._records([[0.5, 0.5], [0.4, 0.4]], [7.0, 250.0])
        w, _ = default_weights(recs)
        np.testing.assert_array_equal(w, [7.0, 100.0])

    def test_point_weight_at_first_argmin(self):
        recs = self._records([[0.5], [0.3], [0.3]], [10.0])
        _, v = default_weights(recs)
        np.testing.assert_array_equal(v[:, 0], [1.0, 3.0, 1.0])

    def test_empty_history_rejected(self):
        with pytest.raises(FitError):
            default_weights([])


def _synth_records(rng, J=10, T=6, noise=0.0):
    true = DecayParams(
        a0=0.01, a_half=1.0, a1=0.0, a2=0.0, a3=0.0,
        b=rng.uniform(0.2, 0.9, J), c=rng.uniform(0.01, 0.2, J),
    )
    base = np.linspace(100, 600, T)
    ns = np.stack([base * rng.uniform(0.5, 2.0) for _ in range(J)], axis=1)
    Y = np.stack([curve_values(true, ns[t]) for t in range(T)])
    Y = Y + rng.normal(0.0, noise, Y.shape) if noise else Y
    recs = [
        GroupErrorRecord(t, ns[t], Y[t], np.full(J, 50.0)) for t in range(T)
    ]
    return true, ns, Y, recs


class TestFit:
    def test_recovers_generating_curve(self):
        rng = np.random.default_rng(1)
        true, ns, Y, recs = _synth_records(rng)
        f = fit(recs)
        pred = np.stack([curve_values(f.params, ns[t]) for t in range(len(recs))])
        assert np.abs(pred - Y).max() < 1e-3

    def test_flat_history_gives_flat_curve(self):
        J, T = 3, 6
        ns = np.tile(np.linspace(50, 500, T)[:, None], (1, J))
        Y = np.full((T, J), 0.21)
        recs = [GroupErrorRecord(t, ns[t], Y[t], np.full(J, 30.0)) for t in range(T)]
        f = fit(recs)
        curve = np.stack([curve_values(f.params, ns[t]) for t in range(T)])
        assert np.abs(curve - 0.21).max() < 1e-4
        decay_part = curve - f.params.c[None, :]
        assert np.abs(decay_part).max() < 1e-4

    def test_point_weight_scaling_invariance(self):
        rng = np.random.default_rng(2)
        _, ns, Y, recs = _synth_records(rng, J=4, noise=0.01)
        w, v = default_weights(recs)
        f1 = fit(recs, weights=(w, v))
        f2 = fit(recs, weights=(w, 7.5 * v))
        p1 = np.stack([curve_values(f1.params, ns[t]) for t in range(len(recs))])
        p2 = np.stack([curve_values(f2.params, ns[t]) for t in range(len(recs))])
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_objective_monotone_and_best_of_starts(self):
        rng = np.random.default_rng(3)
        _, _, _, recs = _synth_records(rng, J=5, noise=0.02)
        f = fit(recs)
        trace = np.asarray(f.objective_trace)
        assert (np.diff(trace) <= 1e-12 + 1e-9 * np.abs(trace[:-1])).all()
        assert all(f.objective_value <= s + 1e-12 for s in f.start_objectives)

    def test_objective_value_matches_recomputation(self):
        rng = np.random.default_rng(4)
        _, _, _, recs = _synth_records(rng, J=5, noise=0.02)
        f = fit(recs)
        N = np.stack([r.train_mass for r in recs])
        Y = np.stack([r.val_error for r in recs])
        w, v = default_weights(recs)
        recomputed = objective_value(f.params.to_vector(), N, Y, v * w[None, :])
        assert recomputed == pytest.approx(f.objective_value, rel=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        _, _, _, recs = _synth_records(rng, J=4, noise=0.03)
        f1 = fit(recs)
        f2 = fit(recs)
        assert serialize_fit(f1.params) == serialize_fit(f2.params)

    def test_needs_two_checkpoints(self):
        rng = np.random.default_rng(6)
        _, _, _, recs = _synth_records(rng, J=3)
        with pytest.raises(FitError):
            fit(recs[:1])

    def test_all_zero_weights_rejected(self):
        rng = np.random.default_rng(7)
        _, _, _, recs = _synth_records(rng, J=3)
        recs = [
            GroupErrorRecord(r.checkpoint_index, r.train_mass, r.val_error, np.zeros(3))
            for r in recs
        ]
        with pytest.raises(FitError):
            fit(recs)

    def test_zero_weight_group_excluded(self):
        rng = np.random.default_rng(8)
        _, ns, Y, recs = _synth_records(rng, J=4)
        val_mass = np.array([50.0, 0.0, 50.0, 50.0])
        recs = [
            GroupErrorRecord(r.checkpoint_index, r.train_mass, r.val_error, val_mass)
            for r in recs
        ]
        f = fit(recs)
        assert f.params.b[1] == 0.0 and f.params.c[1] == 0.0
        pred = np.stack([curve_values(f.params, ns[t]) for t in range(len(recs))])
        keep = [0, 2, 3]
        assert np.abs(pred[:, keep] - Y[:, keep]).max() < 1e-3


class TestFitConfig:
    @pytest.mark.parametrize(
        "options",
        [
            {"restarts": 0},
            {"restarts": 2.0},
            {"restarts": True},
            {"max_outer": -1},
            {"max_outer": "30"},
            {"rel_tol": -1e-9},
            {"rel_tol": float("nan")},
            {"rel_tol": float("inf")},
            {"rel_tol": "tight"},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_bad_options_rejected(self, options):
        with pytest.raises(ValueError):
            FitConfig(**options)

    def test_edge_values_accepted(self):
        rng = np.random.default_rng(10)
        _, _, _, recs = _synth_records(rng, J=2)
        f = fit(recs, config=FitConfig(restarts=1, max_outer=0, rel_tol=0))
        assert len(f.start_objectives) == 1 and len(f.objective_trace) == 2
        assert not f.converged


def _solve_a_inputs(data, case):
    """Random inputs of the shared-coefficient solve for one test case,
    with 1-8 starts on the leading axis of b, c and current."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    T = data.draw(st.integers(2, 6), label="T")
    J = 1 if case == "single_group" else data.draw(st.integers(1, 8), label="J")
    S = data.draw(st.integers(1, 8), label="starts")
    # masses at most 1 make every basis column equal, so G has rank 1 and
    # every system with more than one free coefficient is singular
    high = 1.0 if case == "masses_below_one" else 500.0
    N = rng.uniform(0.0, high, (T, J))
    inv = 1.0 / np.maximum(N, 1.0)
    phi = np.stack([np.sqrt(inv), inv, inv**2, inv**3])
    Y = rng.uniform(0.0, 1.0, (T, J))
    W = rng.uniform(0.0, 100.0, (T, J))
    if case == "zero_weight_groups":
        W[:, rng.random(J) < 0.5] = 0.0
    b = rng.uniform(0.0, 1.0, (S, J))
    if case == "zero_amplitudes":
        # the first start and some others: their systems are all singular
        b[(rng.random(S) < 0.5) | (np.arange(S) == 0)] = 0.0
    c = rng.uniform(0.0, 0.5, (S, J))
    current = rng.uniform(0.0, 2.0, (S, 4)) * (rng.random((S, 4)) < 0.7)
    if case == "optimal_current":
        current = _stacked_per_mask_solve_a(phi, Y, W, b, c, current)
    return phi, Y, W, b, c, current


def _stacked_per_mask_solve_a(phi, Y, W, b, c, current):
    """``decay._solve_a``'s stacked signature over the per-mask oracle."""
    return np.stack([per_mask_solve_a(phi, Y, W, *row) for row in zip(b, c, current)])


class TestStackedSolveA:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        case=st.sampled_from(
            ["random", "zero_amplitudes", "single_group", "zero_weight_groups",
             "optimal_current", "masses_below_one"]
        ),
    )
    def test_bit_identical_to_per_mask_solve(self, data, case):
        phi, Y, W, b, c, current = _solve_a_inputs(data, case)
        got = decay._solve_a(phi, Y, W, b, c, current)
        assert got.shape == current.shape and got.dtype == np.float64
        for s in range(len(current)):
            want = per_mask_solve_a(phi, Y, W, b[s], c[s], current[s])
            assert got[s].tobytes() == want.tobytes()

    # one zero-weight group each; scale 0.01 puts most masses below 1
    @pytest.mark.parametrize("seed, mass_scale", [(11, 1.0), (12, 1.0), (13, 0.01)])
    def test_fit_identical_with_per_mask_solve(self, seed, mass_scale, monkeypatch):
        rng = np.random.default_rng(seed)
        _, _, _, recs = _synth_records(rng, J=6, noise=0.03)
        val_mass = np.full(6, 50.0)
        val_mass[seed % 6] = 0.0
        recs = [
            GroupErrorRecord(r.checkpoint_index, r.train_mass * mass_scale, r.val_error, val_mass)
            for r in recs
        ]
        cfg = FitConfig(max_outer=60)
        got = fit(recs, config=cfg)
        monkeypatch.setattr(decay, "_solve_a", _stacked_per_mask_solve_a)
        want = fit(recs, config=cfg)
        _assert_same_fit(got, want)


def _assert_same_fit(got, want):
    assert got.params.to_vector().tobytes() == want.params.to_vector().tobytes()
    assert np.float64(got.objective_value).tobytes() == np.float64(want.objective_value).tobytes()
    assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()
    assert len(got.objective_trace) == len(want.objective_trace)
    assert np.array(got.start_objectives).tobytes() == np.array(want.start_objectives).tobytes()
    assert got.converged is want.converged


def _outcome(fitter, *args, **kwargs):
    """A fit, or the class and group of the DecayNumericalError it raised."""
    try:
        return fitter(*args, **kwargs)
    except decay.DecayNumericalError as exc:
        return type(exc), exc.group


class TestStackedStarts:
    """The starts advance together, bit for bit as when they ran one at a
    time (``per_start_fit``), including which start's error is raised."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        J=st.sampled_from([1, 1, 2, 5, 12]),
        T=st.sampled_from([2, 3, 7, 8, 9, 17, 30]),
        restarts=st.integers(1, 8),
        max_outer=st.integers(0, 60),
        rel_tol=st.sampled_from([0, 1e-12, 1e-6]),
        masses=st.sampled_from(["spread", "at_most_one"]),
        zero_groups=st.booleans(),
        weight_scale=st.sampled_from([1.0, 1.0, 1e300, 2e306]),
    )
    def test_bit_identical_to_per_start_fit(
        self, seed, J, T, restarts, max_outer, rel_tol, masses, zero_groups, weight_scale
    ):
        rng = np.random.default_rng(seed)
        high = 1.0 / T if masses == "at_most_one" else 300.0
        N = np.cumsum(rng.uniform(0.0, high, (T, J)), axis=0)
        Y = rng.uniform(0.0, 1.0, (T, J))
        val_mass = rng.uniform(1.0, 200.0, J)
        if zero_groups:
            val_mass[rng.random(J) < 0.4] = 0.0
        val_mass[rng.integers(J)] = 50.0  # at least one group has weight
        recs = [GroupErrorRecord(t, N[t], Y[t], val_mass) for t in range(T)]
        w, v = default_weights(recs)
        weights = (w if weight_scale == 1.0 else np.where(w > 0, weight_scale, 0.0), v)
        cfg = FitConfig(restarts=restarts, max_outer=max_outer, rel_tol=rel_tol, seed=seed % 7)
        with np.errstate(all="ignore"):
            got = _outcome(fit, recs, weights=weights, config=cfg)
            want = _outcome(per_start_fit, recs, weights=weights, config=cfg)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_fit(got, want)

    # at restarts 8 some later start overflows: at 2e306 start 4 of history
    # 0, and at 1e307 several, in different groups: starts 4, 5 and 7 of
    # history 0 (groups 3, 0, 3), starts 5 and 7 of history 2 (groups 0, 3);
    # at 1e308 start 0 already does
    @pytest.mark.parametrize(
        "history_seed, scale", [(0, 1e308), (0, 2e306), (0, 1e307), (2, 1e307)]
    )
    @pytest.mark.parametrize("restarts", [1, 8])
    def test_overflow_raises_the_per_start_error(self, history_seed, scale, restarts):
        rng = np.random.default_rng(history_seed)
        _, _, _, recs = _synth_records(rng, J=4, noise=0.03)
        weights = (np.full(4, scale), default_weights(recs)[1])
        cfg = FitConfig(restarts=restarts)
        with np.errstate(all="ignore"):
            want = _outcome(per_start_fit, recs, weights=weights, config=cfg)
            got = _outcome(fit, recs, weights=weights, config=cfg)
        if restarts == 8 or scale == 1e308:
            assert want[0] is decay.DecayNumericalError
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_fit(got, want)


class TestFitInputs:
    """Inputs the fit cannot use are a FitError before any arithmetic."""

    def _recs(self):
        _, _, _, recs = _synth_records(np.random.default_rng(14), J=4, T=5)
        return recs

    @pytest.mark.parametrize(
        "shapes", [((3,), (5, 4)), ((4,), (5, 3)), ((4,), (4,)), ((1,), (5, 4))],
        ids=["short_w", "short_v", "flat_v", "broadcast_w"],
    )
    def test_weights_of_the_wrong_shape(self, shapes):
        w_shape, v_shape = shapes
        with pytest.raises(FitError, match="weights need shapes"):
            fit(self._recs(), weights=(np.ones(w_shape), np.ones(v_shape)))

    def test_records_of_different_group_counts(self):
        recs = self._recs()
        r = recs[2]
        recs[2] = GroupErrorRecord(r.checkpoint_index, r.train_mass[:3], r.val_error[:3], r.val_mass[:3])
        with pytest.raises(FitError, match="one value per group"):
            fit(recs)

    def test_negative_group_weight(self):
        recs = self._recs()
        w, v = default_weights(recs)
        w[1] = -1.0
        with pytest.raises(FitError, match="non-negative"):
            fit(recs, weights=(w, v))

    def test_negative_validation_mass(self):
        recs = self._recs()
        r = recs[-1]
        recs[-1] = GroupErrorRecord(r.checkpoint_index, r.train_mass, r.val_error,
                                    np.array([50.0, -5.0, 50.0, 50.0]))
        with pytest.raises(FitError, match="non-negative"):
            fit(recs)

    def test_nan_group_weight(self):
        recs = self._recs()
        w, v = default_weights(recs)
        w[2] = np.nan
        with pytest.raises(FitError, match="finite"):
            fit(recs, weights=(w, v))

    def test_all_nan_weights(self):
        recs = self._recs()
        _, v = default_weights(recs)
        with pytest.raises(FitError, match="finite"):
            fit(recs, weights=(np.full(4, np.nan), v))


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        J, T = 6, 5
        for _ in range(100):
            N = rng.uniform(0.5, 500, size=(T, J))
            Y = rng.uniform(0, 1, size=(T, J))
            W = rng.uniform(0.1, 100, size=(T, J))
            vec = np.concatenate(
                [rng.uniform(0.05, 2.0, 5), rng.uniform(0.05, 1.0, 2 * J)]
            )
            _, grad = objective_and_gradient(vec, N, Y, W)
            fd = np.zeros_like(vec)
            for i in range(len(vec)):
                h = 1e-6 * max(abs(vec[i]), 1e-3)
                vp, vm = vec.copy(), vec.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (
                    objective_value(vp, N, Y, W) - objective_value(vm, N, Y, W)
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel < 1e-5


class TestSerialization:
    def test_round_trip(self):
        p = _params(a0=0.5, a_half=1.25, a1=0.03, b=(0.4, 0.0), c=(0.05, 0.9))
        text = serialize_fit(p, objective=1.25e-3)
        q = parse_fit(text)
        assert q.a0 == p.a0 and q.a_half == p.a_half
        np.testing.assert_array_equal(q.b, p.b)
        np.testing.assert_array_equal(q.c, p.c)
        assert serialize_fit(q, objective=1.25e-3) == text

    def test_rejects_garbage(self):
        with pytest.raises(FitError):
            parse_fit("not,a,fit\n")

    @pytest.mark.parametrize(
        "text",
        [
            "a0,a_half,a1,a2,a3\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,0.0\ngroup,b,c\n0,0.4,0.1\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,0.0,0.0\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,0.0,0.0\ngroup,b,c\n0,0.4\n",
        ],
        ids=["no_coefficient_row", "short_coefficient_row", "no_group_header", "short_group_row"],
    )
    def test_malformed_file_is_fit_error(self, text):
        with pytest.raises(FitError):
            parse_fit(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a0,a_half,a1,a2,a3\n1.0,nan,0.0,0.0,0.0\ngroup,b,c\n0,0.4,0.1\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,0.0,0.0\ngroup,b,c\n0,0.4,0.1\n1,inf,0.1\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,0.0,0.0\ngroup,b,c\n0,0.4,-1e999\n",
            "a0,a_half,a1,a2,a3\n1.0,0.5,0.0,x,0.0\ngroup,b,c\n0,0.4,0.1\n",
        ],
        ids=["nan-shared", "inf-b", "overflow-c", "not-a-number"],
    )
    def test_non_finite_coefficient_is_fit_error(self, text):
        with pytest.raises(FitError, match="row"):
            parse_fit(text)
