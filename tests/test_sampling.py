"""Measurement families, noise streams, oracles, and stream adapters."""
import numpy as np
import pytest

import sourcescope as ss
from sourcescope import (DictStreams, GridFunction, MeasurementConfig,
                         SampledStreams, dump_measurements, inner,
                         sample_laplace, sample_m, sample_s)
from sourcescope.dynamics import (BackgroundSource, Catalyst,
                                  MultiplicationGenerator, SourceModel,
                                  Trajectory, forcing_values,
                                  zero_background)
from sourcescope.errors import (DataError, InputError, ModelError,
                                RangeError)
from sourcescope.hilbert import (gauss_legendre, gauss_panels,
                                 trapezoid_weights)
from sourcescope.sampling import (GL_POINTS, NoiseBank, Sampler,
                                  oracle_delta_laplace, oracle_m_expansion)

NODES = 65


def gf(fn):
    return GridFunction.from_callable(fn, NODES)


def small_model():
    return SourceModel(
        u0=GridFunction.zeros(NODES),
        catalysts=(Catalyst(gf(lambda x: np.sin(x) + 1.0), 1.5, 0.155),),
        background=BackgroundSource("exp_decay", 0.05, gf(lambda x: x)),
        D=0.5, H=2.0, rho_lo=1.0, rho_hi=3.0)


@pytest.fixture
def setup():
    model = small_model()
    gen = MultiplicationGenerator(gf(lambda x: 0.8 - 0.3 * x))
    cfg = MeasurementConfig(beta=0.05, horizon=0.6, N=20, sigma=0.0)
    traj = Trajectory(model, gen, cfg.horizon)
    g = gf(lambda x: x)
    return model, gen, cfg, traj, g


class TestConfig:
    def test_validation(self):
        good = dict(beta=0.01, horizon=1.0)
        MeasurementConfig(**good)
        with pytest.raises(InputError):
            MeasurementConfig(beta=0.0, horizon=1.0)
        with pytest.raises(InputError):
            MeasurementConfig(horizon=0.0, beta=0.01)
        with pytest.raises(InputError):
            MeasurementConfig(N=0, **good)
        with pytest.raises(InputError):
            MeasurementConfig(k=0, **good)
        with pytest.raises(InputError):
            MeasurementConfig(sigma=-1.0, **good)
        with pytest.raises(InputError):
            MeasurementConfig(noise_mode="gaussian", **good)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_beta(self, value):
        with pytest.raises(InputError, match="beta must be finite"):
            MeasurementConfig(beta=value, horizon=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_horizon(self, value):
        with pytest.raises(InputError, match="horizon must be finite"):
            MeasurementConfig(beta=0.01, horizon=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sigma(self, value):
        with pytest.raises(InputError, match="sigma must be finite"):
            MeasurementConfig(beta=0.01, horizon=1.0, sigma=value)

    def test_derived(self):
        cfg = MeasurementConfig(beta=0.01, horizon=5.0, N=100)
        assert cfg.n_max == 499
        assert cfg.beta_fine == pytest.approx(1e-4)
        assert MeasurementConfig(beta=0.05, horizon=0.6).n_max == 11


class TestNoiseBank:
    def cfg(self, mode, sigma=1e-3):
        return MeasurementConfig(beta=0.01, horizon=1.0, sigma=sigma,
                                 noise_mode=mode, seed=7)

    def test_zero_modes(self):
        bank = NoiseBank(self.cfg("zero"))
        assert bank.real("m", "g", 3) == 0.0
        assert bank.complex_("laplace", "g", 3) == 0.0
        bank = NoiseBank(self.cfg("uniform", sigma=0.0))
        assert bank.real("m", "g", 3) == 0.0

    def test_uniform_bounded_and_deterministic(self):
        cfg = self.cfg("uniform")
        a, b = NoiseBank(cfg), NoiseBank(cfg)
        for i in range(50):
            v = a.real("m", "g", i)
            assert abs(v) <= cfg.sigma
            assert v == b.real("m", "g", i)
            z = a.complex_("laplace", "g", i)
            assert abs(z) <= cfg.sigma + 1e-15
            assert z == b.complex_("laplace", "g", i)

    def test_streams_distinct(self):
        bank = NoiseBank(self.cfg("uniform"))
        draws = {(fam, sid): [bank.real(fam, sid, i) for i in range(8)]
                 for fam in ("m", "s") for sid in ("g1", "g2")}
        vals = list(draws.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert vals[i] != vals[j]

    def test_adversarial_alternates(self):
        bank = NoiseBank(self.cfg("adversarial_alternating"))
        s = bank.cfg.sigma
        assert [bank.real("m", "g", i) for i in range(4)] == [s, -s, s, -s]
        # the k = 0 Laplace stream flips sign so Delta differences saturate
        assert bank.complex_("laplace", "g", 0) == complex(s, 0.0)
        assert bank.complex_("laplace0", "g", 0) == complex(-s, 0.0)

    def test_stream_exhaustion(self):
        bank = NoiseBank(self.cfg("uniform"), count=4)
        with pytest.raises(RangeError):
            bank.real("m", "g", 4)


class TestSampler:
    def test_range_errors(self, setup):
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        with pytest.raises(RangeError):
            smp.m(-1, "g")
        with pytest.raises(RangeError):
            smp.m(cfg.n_max + 1, "g")
        with pytest.raises(RangeError):
            smp.laplace(cfg.n_max + 1, "g")
        with pytest.raises(RangeError):
            smp.s(-1, "g")

    def test_duplicate_sensor_ids(self, setup):
        model, gen, cfg, traj, g = setup
        with pytest.raises(InputError):
            Sampler(traj, [("g", g), ("g", g)], cfg)
        with pytest.raises(InputError):
            Sampler(traj, [], cfg)

    def test_standalone_helpers_agree(self, setup):
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        for n in (0, 3, 7):
            assert sample_m(traj, g, n, cfg).value == pytest.approx(
                smp.m(n, "g").value, rel=1e-12, abs=1e-13)
            assert sample_s(traj, g, n, cfg).value == pytest.approx(
                smp.s(n, "g").value, rel=1e-12, abs=1e-13)
            got = sample_laplace(traj, g, n, cfg).value
            assert got == pytest.approx(smp.laplace(n, "g").value,
                                        rel=1e-12, abs=1e-13)

    def test_m_equals_forcing_average(self, setup):
        """Noiseless m_n = (1/b) int <F, g> over the window."""
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        w_space = trapezoid_weights(NODES)
        t_kink = model.catalysts[0].t_intake
        for n in (0, 3, 4):
            lo, hi = n * cfg.beta, (n + 1) * cfg.beta
            edges = [lo] + [t_kink] * (lo < t_kink < hi) + [hi]
            ref = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                t, w = gauss_panels(a, b, 8, 16)
                fg = forcing_values(model, t) @ (w_space * g.values)
                ref += float(np.dot(w, fg))
            ref /= cfg.beta
            assert smp.m(n, "g").value == pytest.approx(ref, abs=1e-10)

    def test_delta_equals_weighted_forcing_integral(self, setup):
        """Delta_{s,l} = (1/b^2) int (e^{-st} - 1) <F, g> over the window."""
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        s = 2j * np.pi * cfg.k / cfg.beta
        w_space = trapezoid_weights(NODES)
        for ell in (2, 4, 8):
            delta = smp.laplace(ell, "g").value \
                - smp.laplace(ell, "g", k=0).value
            t, w = gauss_panels(ell * cfg.beta, (ell + 1) * cfg.beta, 16, 16)
            fg = forcing_values(model, t) @ (w_space * g.values)
            ref = np.dot(w * (np.exp(-s * t) - 1.0), fg) / cfg.beta ** 2
            assert abs(delta - ref) < 2e-7

    def test_s_amplitude_scales_inverse_beta(self, setup):
        """Halving beta roughly doubles the noiseless fine-scale values,
        so a fixed sigma means better signal-to-noise at smaller steps."""
        model, gen, cfg, traj, g = setup
        v1 = sample_s(traj, g, 4, cfg).value
        cfg2 = MeasurementConfig(beta=cfg.beta / 2, horizon=cfg.horizon,
                                 N=cfg.N)
        v2 = sample_s(traj, g, 8, cfg2).value  # same physical time
        assert v2 / v1 == pytest.approx(2.0, rel=0.02)

    def test_gauss_legendre_computed_once_per_count(self, setup,
                                                   monkeypatch):
        model, gen, cfg, traj, g = setup
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(points):
            calls.append(points)
            return real(points)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        gauss_legendre.cache_clear()
        try:
            Sampler(traj, [("g", g)], cfg)
            Sampler(traj, [("g", g), ("h", gf(lambda x: 1.0))], cfg)
        finally:
            gauss_legendre.cache_clear()
        assert calls == [GL_POINTS]


class TestOracles:
    def test_m_oracle_matches_sampler(self, setup):
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        for n in range(cfg.n_max + 1):
            ref = oracle_m_expansion(model, g, n, cfg)
            assert smp.m(n, "g").value == pytest.approx(ref, abs=1e-10)

    def test_delta_oracle_matches_sampler(self, setup):
        model, gen, cfg, traj, g = setup
        smp = Sampler(traj, [("g", g)], cfg)
        for ell in range(cfg.n_max + 1):
            ref = oracle_delta_laplace(model, g, ell, cfg)
            got = smp.laplace(ell, "g").value \
                - smp.laplace(ell, "g", k=0).value
            assert abs(got - ref) < 1e-9

    def test_delta_oracle_rejects_crowded_window(self):
        h = gf(lambda x: 1.0)
        model = SourceModel(
            u0=GridFunction.zeros(NODES),
            catalysts=(Catalyst(h, 1.0, 0.101), Catalyst(h, 1.0, 0.102)),
            background=zero_background(NODES),
            D=1e-4, H=2.0, rho_lo=0.5, rho_hi=3.0)
        cfg = MeasurementConfig(beta=0.1, horizon=1.0)
        with pytest.raises(ModelError):
            oracle_delta_laplace(model, gf(lambda x: x), 1, cfg)


class TestStreams:
    def test_sampled_streams_memoize_and_record(self, setup):
        model, gen, cfg, traj, g = setup
        streams = SampledStreams(Sampler(traj, [("g", g)], cfg))
        m3 = streams.m(3, "g")
        assert streams.m(3, "g") == m3
        streams.delta(2, "g")
        streams.s(1, "g")
        fams = [r.family for r in streams.records()]
        assert fams == ["m", "s", "laplace", "laplace0"]
        assert streams.sensor_ids == ["g"]
        assert streams.n_max == cfg.n_max

    def test_dict_streams_errors_name_the_gap(self):
        streams = DictStreams(m={("g", 0): 1.0}, delta={("g", 0): 1.0j})
        assert streams.m(0, "g") == 1.0
        with pytest.raises(DataError, match="index 5 for sensor g"):
            streams.m(5, "g")
        with pytest.raises(DataError, match="sensor h"):
            streams.delta(0, "h")
        with pytest.raises(DataError, match="s measurement"):
            streams.s(0, "g")

    def test_dict_streams_s_fallback(self):
        streams = DictStreams(s={("g", 1, 10): 5.0, ("g", 2): 7.0})
        assert streams.s(1, "g", 10) == 5.0
        assert streams.s(2, "g", 99) == 7.0

    def test_dump_measurements_format(self, setup, tmp_path):
        model, gen, cfg, traj, g = setup
        streams = SampledStreams(Sampler(traj, [("g", g)], cfg))
        streams.m(0, "g")
        streams.delta(1, "g")
        path = tmp_path / "measurements.csv"
        dump_measurements(streams.records(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "family,index,sensor_id,re,im,noise_re,noise_im"
        assert len(lines) == 4  # m + laplace + laplace0
        cells = lines[1].split(",")
        assert cells[0] == "m" and cells[1] == "0" and cells[2] == "g"
        assert float(cells[4]) == 0.0  # m is real
