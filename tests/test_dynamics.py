"""Generator, semigroup, sources, and the mild-solution trajectory."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sourcescope as ss
from sourcescope import (BackgroundSource, Catalyst, GridFunction,
                         MultiplicationGenerator, SourceModel, Trajectory,
                         catalyst_response, evolve_state, inner,
                         zero_background)
from sourcescope.dynamics import background_exp_oracle, forcing_values
from sourcescope.errors import InputError, ModelError

NODES = 65


def gf(fn):
    return GridFunction.from_callable(fn, NODES)


@pytest.fixture
def gen():
    return MultiplicationGenerator(gf(lambda x: 1.0 - 0.5 * x))


class TestGenerator:
    def test_semigroup_identity_at_zero(self, gen):
        f = gf(lambda x: np.sin(3 * x))
        assert gen.semigroup(0.0, f) is f

    def test_semigroup_nodewise(self, gen):
        f = gf(lambda x: x + 1.0)
        out = gen.semigroup(0.7, f)
        expected = np.exp(gen.symbol.values * 0.7) * f.values
        assert np.allclose(out.values, expected, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_semigroup_property(self, t, s):
        gen = MultiplicationGenerator(gf(lambda x: 0.5 - x))
        f = gf(lambda x: np.cos(x))
        lhs = gen.semigroup(t + s, f).values
        rhs = gen.semigroup(t, gen.semigroup(s, f)).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_apply_and_self_adjoint(self, gen):
        f = gf(lambda x: x)
        g = gf(lambda x: x ** 2)
        assert np.allclose(gen.apply(f).values,
                           gen.symbol.values * f.values)
        assert inner(gen.apply(f), g) == pytest.approx(
            inner(f, gen.apply(g)), abs=1e-13)


class TestSources:
    def test_catalyst_validation(self):
        h = gf(lambda x: x)
        with pytest.raises(InputError):
            Catalyst(h=h, rho=0.0, t_intake=1.0)
        with pytest.raises(InputError):
            Catalyst(h=h, rho=1.0, t_intake=-0.1)

    def test_background_kinds(self):
        prof = gf(lambda x: x)
        exp = BackgroundSource("exp_decay", 0.5, prof)
        assert exp.weight(2.0) == pytest.approx(np.exp(-1.0))
        sin = BackgroundSource("sinusoid", 0.5, prof)
        assert sin.weight(2.0) == pytest.approx(np.sin(1.0))
        assert not exp.is_zero and not sin.is_zero
        assert BackgroundSource("sinusoid", 0.0, prof).is_zero
        assert zero_background(NODES).is_zero
        with pytest.raises(InputError):
            BackgroundSource("white", 0.5, prof)
        with pytest.raises(InputError):
            BackgroundSource("exp_decay", -0.5, prof)

    def test_background_at(self):
        bg = BackgroundSource("exp_decay", 2.0, gf(lambda x: x))
        assert np.allclose(bg.at(0.5).values,
                           bg.profile.values * np.exp(-1.0))

    def test_model_validation(self):
        h = gf(lambda x: np.sin(x))
        bg = zero_background(NODES)
        u0 = GridFunction.zeros(NODES)
        good = dict(u0=u0, background=bg, D=1.0, H=2.0,
                    rho_lo=0.5, rho_hi=3.0)
        SourceModel(catalysts=(Catalyst(h, 1.0, 0.2),), **good)
        with pytest.raises(ModelError):
            SourceModel(catalysts=(Catalyst(h, 4.0, 0.2),), **good)
        with pytest.raises(ModelError):
            SourceModel(catalysts=(Catalyst(h, 1.0, 0.5),
                                   Catalyst(h, 1.0, 0.2)), **good)
        with pytest.raises(ModelError):
            SourceModel(catalysts=(Catalyst(gf(lambda x: 9.0), 1.0, 0.2),),
                        **good)
        with pytest.raises(ModelError):
            SourceModel(u0=u0, catalysts=(), background=bg, D=0.0, H=1.0,
                        rho_lo=0.5, rho_hi=3.0)
        with pytest.raises(ModelError):
            SourceModel(u0=u0, catalysts=(), background=bg, D=1.0, H=1.0,
                        rho_lo=2.0, rho_hi=1.0)


class TestCatalystResponse:
    def test_before_intake(self, gen):
        c = Catalyst(gf(lambda x: x), 1.0, 0.5)
        with pytest.raises(InputError):
            catalyst_response(gen, c, 0.4)

    def test_closed_form_unit_symbol(self):
        # a = 1, rho = 1, h = 1: response = (e^{dt} - e^{-dt})/2 = sinh(dt)
        gen1 = MultiplicationGenerator(gf(lambda x: 1.0))
        c = Catalyst(gf(lambda x: 1.0), 1.0, 0.25)
        out = catalyst_response(gen1, c, 0.75)
        assert np.allclose(out.values, np.sinh(0.5), atol=1e-15)

    def test_matches_quadrature(self, gen):
        c = Catalyst(gf(lambda x: np.cos(x)), 2.0, 0.3)
        t = 1.1
        out = catalyst_response(gen, c, t)
        s = np.linspace(c.t_intake, t, 4001)
        a = gen.symbol.values[:, None]
        integrand = np.exp(a * (t - s[None, :])) \
            * np.exp(-c.rho * (s[None, :] - c.t_intake))
        ref = c.h.values * np.trapezoid(integrand, s, axis=1)
        assert np.allclose(out.values, ref, rtol=1e-6, atol=1e-9)

    def test_removable_singularity(self):
        # a = -rho exactly: response = h dt e^{-rho dt}
        gen_s = MultiplicationGenerator(gf(lambda x: -2.0))
        c = Catalyst(gf(lambda x: x + 1.0), 2.0, 0.0)
        out = catalyst_response(gen_s, c, 0.4)
        expected = c.h.values * 0.4 * np.exp(-0.8)
        assert np.allclose(out.values, expected, atol=1e-14)


class TestForcing:
    def test_values(self, gen):
        h = gf(lambda x: x)
        model = SourceModel(
            u0=GridFunction.zeros(NODES),
            catalysts=(Catalyst(h, 2.0, 0.5),),
            background=BackgroundSource("exp_decay", 0.1, gf(lambda x: 1.0)),
            D=1.0, H=1.0, rho_lo=1.0, rho_hi=3.0)
        out = forcing_values(model, [0.25, 1.0])
        x = np.linspace(0, 1, NODES)
        assert np.allclose(out[0], np.exp(-0.025))
        assert np.allclose(out[1], x * np.exp(-1.0) + np.exp(-0.1))


class TestTrajectory:
    def _model(self, L=0.25):
        return SourceModel(
            u0=gf(lambda x: np.cos(x)),
            catalysts=(Catalyst(gf(lambda x: np.sin(x) + 1.0), 1.5, 0.3),
                       Catalyst(gf(lambda x: x), 2.5, 1.6)),
            background=BackgroundSource("exp_decay", L, gf(lambda x: x)),
            D=1.0, H=2.0, rho_lo=1.0, rho_hi=3.0)

    def test_background_exp_oracle(self, gen):
        bg = BackgroundSource("exp_decay", 0.25, gf(lambda x: x))
        t = 0.8
        out = background_exp_oracle(gen, bg, t)
        s = np.linspace(0.0, t, 4001)
        a = gen.symbol.values[:, None]
        integrand = np.exp(a * (t - s[None, :])) * np.exp(-0.25 * s[None, :])
        ref = bg.profile.values * np.trapezoid(integrand, s, axis=1)
        assert np.allclose(out.values, ref, rtol=1e-8, atol=1e-12)
        with pytest.raises(InputError):
            background_exp_oracle(
                gen, BackgroundSource("sinusoid", 0.25, gf(lambda x: x)), t)

    def test_state_matches_closed_form(self, gen):
        model = self._model()
        traj = Trajectory(model, gen, horizon=2.0)
        for t in (0.0, 0.31, 1.0, 1.9):
            u = traj.state(t).values
            ref = np.exp(gen.symbol.values * t) * model.u0.values
            ref = ref + background_exp_oracle(
                gen, model.background, t).values
            for c in model.catalysts:
                if t > c.t_intake:
                    ref = ref + catalyst_response(gen, c, t).values
            assert np.allclose(u, ref, rtol=1e-11, atol=1e-12)

    def test_state_values_batched_equals_scalar(self, gen):
        model = self._model()
        traj = Trajectory(model, gen, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 37)
        batch = traj.state_values(ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], traj.state(t).values, atol=1e-14)

    def test_outside_horizon(self, gen):
        traj = Trajectory(self._model(), gen, horizon=2.0)
        with pytest.raises(InputError):
            traj.state(2.5)
        with pytest.raises(InputError):
            traj.state(-0.1)
        with pytest.raises(InputError):
            Trajectory(self._model(), gen, horizon=0.0)

    def test_evolve_state_agrees(self, gen):
        model = self._model()
        traj = Trajectory(model, gen, horizon=2.0)
        for t in (0.45, 1.7):
            assert np.allclose(evolve_state(model, gen, t).values,
                               traj.state(t).values, rtol=1e-10, atol=1e-11)
        with pytest.raises(InputError):
            evolve_state(model, gen, -1.0)

    def test_sinusoid_background(self, gen):
        model = SourceModel(
            u0=GridFunction.zeros(NODES), catalysts=(),
            background=BackgroundSource("sinusoid", 2.0, gf(lambda x: x)),
            D=1.0, H=1.0, rho_lo=1.0, rho_hi=3.0)
        traj = Trajectory(model, gen, horizon=1.0)
        t = 0.9
        s = np.linspace(0.0, t, 8001)
        a = gen.symbol.values[:, None]
        integrand = np.exp(a * (t - s[None, :])) * np.sin(2.0 * s[None, :])
        x = np.linspace(0, 1, NODES)
        ref = x * np.trapezoid(integrand, s, axis=1)
        assert np.allclose(traj.state(t).values, ref, rtol=1e-7, atol=1e-9)


def _full_model(kind, L=0.25):
    return SourceModel(
        u0=gf(lambda x: np.cos(x)),
        catalysts=(Catalyst(gf(lambda x: np.sin(x) + 1.0), 1.5, 0.3),
                   Catalyst(gf(lambda x: x), 2.5, 1.6)),
        background=BackgroundSource(kind, L, gf(lambda x: x)),
        D=1.0, H=2.0, rho_lo=1.0, rho_hi=3.0)


GENERATORS = {
    "const": lambda x: 0.7 + 0.0 * x,
    "linear": lambda x: 1.0 - 0.5 * x,
    # repeated symbol values: five distinct levels over 65 nodes
    "custom-grid": lambda x: np.round(4.0 * x) / 4.0 - 0.5,
}


class TestClosedFormEngine:
    @pytest.mark.parametrize("kind", ["exp_decay", "sinusoid"])
    @pytest.mark.parametrize("symbol", sorted(GENERATORS))
    def test_matches_evolve_state(self, kind, symbol):
        model = _full_model(kind)
        gen = MultiplicationGenerator(gf(GENERATORS[symbol]))
        traj = Trajectory(model, gen, horizon=2.0)
        for t in (0.0, 0.3, 0.95, 1.6, 2.0):
            ref = evolve_state(model, gen, t).values
            assert np.allclose(traj.state(t).values, ref,
                               rtol=1e-10, atol=1e-11)

    @pytest.mark.parametrize("kind", ["exp_decay", "sinusoid"])
    def test_projected_equals_state_values(self, kind):
        model = _full_model(kind)
        gen = MultiplicationGenerator(gf(GENERATORS["custom-grid"]))
        traj = Trajectory(model, gen, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 2501)  # more than one chunk
        W = np.column_stack([np.ones(NODES), np.linspace(0, 1, NODES),
                             gen.symbol.values])
        assert np.allclose(traj.projected(ts, W), traj.state_values(ts) @ W,
                           rtol=1e-12, atol=1e-13)

    def test_spectral_grouping(self):
        gen = MultiplicationGenerator(gf(GENERATORS["custom-grid"]))
        traj = Trajectory(_full_model("exp_decay"), gen, horizon=2.0)
        assert np.array_equal(traj._lam, [-0.5, -0.25, 0.0, 0.25, 0.5])

    def test_zero_model(self, gen):
        model = SourceModel(
            u0=GridFunction.zeros(NODES), catalysts=(),
            background=zero_background(NODES),
            D=1.0, H=1.0, rho_lo=1.0, rho_hi=3.0)
        traj = Trajectory(model, gen, horizon=1.0)
        assert not np.any(traj.projected([0.0, 0.5], np.ones((NODES, 2))))
        assert not np.any(traj.state(1.0).values)

    @pytest.mark.parametrize("gap", [0.0, 3e-10, 1e-6])
    def test_singular_branch(self, gap):
        """a + L (background) and a + rho (catalyst) near or at zero."""
        L, rho = 0.3, 1.5
        model = SourceModel(
            u0=GridFunction.zeros(NODES),
            catalysts=(Catalyst(gf(lambda x: x + 1.0), rho, 0.2),),
            background=BackgroundSource("exp_decay", L, gf(lambda x: x)),
            D=1.0, H=2.0, rho_lo=1.0, rho_hi=3.0)
        x = np.linspace(0, 1, NODES)
        # half the nodes sit at a = -L + gap, half at a = -rho + gap
        symbol = np.where(x < 0.5, -L, -rho) + gap
        gen = MultiplicationGenerator(GridFunction(symbol))
        traj = Trajectory(model, gen, horizon=2.0)
        # below SINGULAR_TOL the limit drops a relative term ~ |a + r| t / 2
        limit_err = gap if gap < ss.dynamics.SINGULAR_TOL else 0.0
        for t in (0.2, 1.1, 2.0):
            ref = evolve_state(model, gen, t).values
            assert np.allclose(traj.state(t).values, ref,
                               rtol=1e-10 + limit_err * t, atol=1e-12)
        # the limit t e^{-rt} of the singular term, plus the regular term
        t, tau = 2.0, 1.8
        a = symbol
        with np.errstate(invalid="ignore"):  # 0/0 in the unselected branch
            bg = np.where(x < 0.5, t * np.exp(-L * t),
                          (np.exp(a * t) - np.exp(-L * t)) / (a + L)) * x
            cat = np.where(x >= 0.5, tau * np.exp(-rho * tau),
                           (np.exp(a * tau) - np.exp(-rho * tau)) / (a + rho))
        assert np.allclose(traj.state(t).values, bg + cat * (x + 1.0),
                           rtol=2e-6, atol=0.0)


class TestNumericalHealth:
    def test_overflow_raises_model_error(self):
        gen = MultiplicationGenerator(gf(lambda x: 200.0 + 0.0 * x))
        traj = Trajectory(_full_model("exp_decay"), gen, horizon=5.0)
        with pytest.raises(ModelError, match="max\\(a\\) \\* horizon = 1000"):
            traj.state_values([4.5])
        with pytest.raises(ModelError, match="horizon = 1000"):
            traj.projected([4.5], np.ones((NODES, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["exp_decay", "sinusoid"])
    def test_strong_decay_runs_cleanly(self, kind):
        data = ss.paper_scenario(generator={"kind": "const", "c": -50.0})
        data["background"]["kind"] = kind
        outcome = ss.run_scenario(ss.build_scenario(data))
        assert all(np.isfinite(complex(r.value)) for r in outcome.records)
        assert outcome.all_satisfied
