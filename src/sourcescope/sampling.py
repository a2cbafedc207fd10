"""Measurement synthesis for the three weak-measurement families.

Families (sensor g, step beta, horizon T):

  m_n   = <u((n+1)b), g/b> - <u(nb), g/b> - int_{nb}^{(n+1)b} <u, A*g/b> dt
  s_n   = <u(nb + b~) - u(nb), g/(b~ b)> - <u(nb), A*g/b>,  b~ = b/N
  m_sl  = int_{lb}^{(l+1)b} e^{-st} <u, (conj(s) I - A*) g/b^2> dt, s = 2 pi i k/b

plus a bounded noise draw per record.  Closed-form expansion oracles are
provided for cross-validation, and stream adapters feed the detectors.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, InputError, RangeError
from .hilbert import gauss_legendre, trapezoid_weights

_NOISE_MODES = ("uniform", "adversarial_alternating", "zero")
_FAMILY_CODES = {"m": 1, "s": 2, "laplace": 3, "laplace0": 4}
GL_POINTS = 32


@dataclass(frozen=True)
class MeasurementConfig:
    beta: float
    horizon: float
    N: int = 100
    k: int = 1
    sigma: float = 0.0
    noise_mode: str = "zero"
    seed: int = 0

    def __post_init__(self):
        for name in ("beta", "horizon", "sigma"):
            if not np.isfinite(getattr(self, name)):
                raise InputError("%s must be finite" % name)
        if self.beta <= 0:
            raise InputError("beta must be positive")
        if self.horizon <= 0:
            raise InputError("horizon must be positive")
        if self.N < 1:
            raise InputError("fine subdivision N must be >= 1")
        if self.k == 0:
            raise InputError("Laplace frequency index k must be nonzero")
        if self.sigma < 0:
            raise InputError("noise bound sigma must be nonnegative")
        if self.noise_mode not in _NOISE_MODES:
            raise InputError("unknown noise mode %r" % self.noise_mode)

    @property
    def beta_fine(self):
        return self.beta / self.N

    @property
    def n_max(self):
        """Largest n with (n+1) beta <= horizon."""
        return int(np.floor(self.horizon / self.beta + 1e-9)) - 1


@dataclass(frozen=True)
class MeasurementRecord:
    family: str
    index: int
    sensor_id: str
    value: complex
    noise_draw: complex


class NoiseBank:
    """Deterministic bounded noise, |nu| <= sigma for every draw.

    Streams are keyed by (seed, family, sensor_id) with one counter-based
    generator per stream, so draws depend only on the configuration and not
    on sampling order.  Modes: zero; uniform on [-sigma, sigma] (complex
    draws: uniform radius in [0, sigma], uniform angle); and
    adversarial_alternating, the +sigma/-sigma pattern that saturates the
    difference terms in the threshold derivations (the k = 0 Laplace stream
    is flipped so Delta differences reach the full 4 sigma).
    """

    def __init__(self, cfg, count=None):
        self.cfg = cfg
        self.count = int(cfg.n_max + 4 if count is None else count)
        self._cache = {}

    def _key(self, family, sensor_id):
        mix = zlib.crc32(("%s|%s" % (family, sensor_id)).encode())
        code = _FAMILY_CODES.get(family.split("@")[0], 7)
        extra = zlib.crc32(family.encode())
        return [self.cfg.seed & (2**64 - 1),
                (code << 56) ^ (extra << 24) ^ mix]

    def _uniform(self, family, sensor_id, rows):
        key = (family, sensor_id, rows)
        if key not in self._cache:
            gen = np.random.Generator(
                np.random.Philox(key=self._key(family, sensor_id)))
            self._cache[key] = gen.uniform(size=(rows, self.count))
        return self._cache[key]

    def real(self, family, sensor_id, index):
        cfg = self.cfg
        if cfg.sigma == 0.0 or cfg.noise_mode == "zero":
            return 0.0
        if index >= self.count:
            raise RangeError("noise stream index %d beyond horizon" % index)
        if cfg.noise_mode == "adversarial_alternating":
            return cfg.sigma * (1.0 if index % 2 == 0 else -1.0)
        u = self._uniform(family, sensor_id, 1)[0, index]
        return cfg.sigma * (2.0 * u - 1.0)

    def complex_(self, family, sensor_id, index):
        cfg = self.cfg
        if cfg.sigma == 0.0 or cfg.noise_mode == "zero":
            return 0.0 + 0.0j
        if index >= self.count:
            raise RangeError("noise stream index %d beyond horizon" % index)
        if cfg.noise_mode == "adversarial_alternating":
            sign = 1.0 if index % 2 == 0 else -1.0
            if family.startswith("laplace0"):
                sign = -sign
            return complex(cfg.sigma * sign, 0.0)
        u = self._uniform(family, sensor_id, 2)
        radius = cfg.sigma * u[0, index]
        angle = 2.0 * np.pi * u[1, index]
        return radius * complex(np.cos(angle), np.sin(angle))


def _interval_quad(n, beta, kinks, points=GL_POINTS):
    """Gauss nodes/weights on [n b, (n+1) b], split at interior kinks.

    The forcing has a kink at every intake time; splitting keeps the
    composite rule spectrally accurate on each smooth piece.  Nodes are
    built in window-local coordinates tau in [0, beta] so that the phase
    e^{-s tau} of the Laplace family is evaluated with an exact offset
    (tau = t - n beta computed by subtraction would shift the phase by
    ~|s| eps |t|, which dominates the error budget late in the horizon);
    returns (tau_local, weights).
    """
    a, b = n * beta, (n + 1) * beta
    cuts = sorted(t - a for t in kinks if a + 1e-14 < t < b - 1e-14)
    edges = [0.0] + cuts + [beta]
    xr, wr = gauss_legendre(points)
    taus, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
        taus.append(mid + half * xr)
        ws.append(half * wr)
    return np.concatenate(taus), np.concatenate(ws)


class Sampler:
    """Batch evaluator of all measurement families for one trajectory.

    The trajectory projects onto the columns w g_i and w a g_i of every
    sensor (w the trapezoid weights) at the shared Gauss nodes and window
    edges, without forming states; the fine s-family projections are
    evaluated lazily per time.  Standalone helpers
    `sample_m`/`sample_s`/`sample_laplace` produce identical values one at
    a time.
    """

    def __init__(self, traj, sensors, cfg, gl_points=GL_POINTS):
        if not sensors:
            raise InputError("need at least one sensor")
        self.traj = traj
        self.cfg = cfg
        self.sensors = dict(sensors)
        if len(self.sensors) != len(sensors):
            raise InputError("sensor ids must be unique")
        nodes = traj.model.nodes
        for sid, g in self.sensors.items():
            if g.nodes != nodes:
                raise DimensionError(
                    "sensor %s has %d nodes, model has %d"
                    % (sid, g.nodes, nodes))
        if cfg.n_max < 0:
            raise InputError("horizon shorter than one step beta")
        self.noise = NoiseBank(cfg)
        beta = cfg.beta
        kinks = [c.t_intake for c in traj.model.catalysts]
        n_itv = cfg.n_max + 1
        # windows away from every intake share one set of local nodes
        plain = _interval_quad(0, beta, [], gl_points)
        near = {int(t // beta) + k for t in kinks for k in (-1, 0, 1)}
        quads = [_interval_quad(n, beta, kinks, gl_points) if n in near
                 else plain for n in range(n_itv)]
        sizes = [tau.size for tau, _ in quads]
        self._tau = np.concatenate([tau for tau, _ in quads])
        self._wq = np.concatenate([w for _, w in quads])[:, None]
        self._offsets = np.cumsum(sizes) - sizes
        tq = np.repeat(np.arange(n_itv) * beta, sizes) + self._tau
        # column i is w g_i and column i + len(sensors) is w a g_i
        self._index = {sid: i for i, sid in enumerate(self.sensors)}
        wg = trapezoid_weights(nodes)[:, None] * np.column_stack(
            [g.values for g in self.sensors.values()])
        self._W = np.hstack([wg, wg * traj.generator.symbol.values[:, None]])
        self._pq = traj.projected(tq, self._W)
        self._pe = traj.projected(np.arange(n_itv + 1) * beta, self._W)
        self._ns = ns = len(self.sensors)
        self._m0 = (self._pe[1:, :ns] - self._pe[:-1, :ns]) / beta \
            - self._window_sums(self._pq[:, ns:]) / beta
        self._lap = {}
        self._fine_cache = {}

    def _window_sums(self, values):
        """Gauss integral of each column of `values` over every window."""
        return np.add.reduceat(values * self._wq, self._offsets)

    def _laplace0(self, k):
        """Noiseless Laplace streams for frequency index k (k = 0 allowed),
        one column per sensor."""
        if k not in self._lap:
            s = 2j * np.pi * k / self.cfg.beta
            integrand = np.exp(-s * self._tau)[:, None] * (
                s * self._pq[:, :self._ns] - self._pq[:, self._ns:])
            self._lap[k] = self._window_sums(integrand) / self.cfg.beta ** 2
        return self._lap[k]

    def _fine(self, t):
        """Projections of u(t) onto every sensor column."""
        if t not in self._fine_cache:
            self._fine_cache[t] = self.traj.projected([t], self._W)[0]
        return self._fine_cache[t]

    def m(self, n, sensor_id):
        cfg = self.cfg
        if n < 0 or n > cfg.n_max:
            raise RangeError(
                "m measurement at n = %d needs (n+1)beta <= horizon" % n)
        nu = self.noise.real("m", sensor_id, n)
        return MeasurementRecord(
            "m", n, sensor_id, self._m0[n, self._index[sensor_id]] + nu, nu)

    def s(self, n, sensor_id, n_sub=None):
        cfg = self.cfg
        nsub = cfg.N if n_sub is None else int(n_sub)
        bfine = cfg.beta / nsub
        t0 = n * cfg.beta
        if n < 0:
            raise RangeError("s measurement index must be nonnegative")
        if t0 + bfine > cfg.horizon + 1e-9:
            raise RangeError(
                "s measurement at n = %d needs the trajectory at t = %g "
                "beyond horizon %g" % (n, t0 + bfine, cfg.horizon))
        i = self._index[sensor_id]
        start = self._pe[n] if n <= cfg.n_max + 1 else self._fine(t0)
        ug0, uag0 = start[i], start[i + self._ns]
        ug1 = float(self._fine(t0 + bfine)[i])
        value = (ug1 - ug0) / (bfine * cfg.beta) - uag0 / cfg.beta
        nu = self.noise.real("s", sensor_id, n)
        return MeasurementRecord("s", n, sensor_id, value + nu, nu)

    def laplace(self, ell, sensor_id, k=None):
        cfg = self.cfg
        kk = cfg.k if k is None else int(k)
        if ell < 0 or ell > cfg.n_max:
            raise RangeError(
                "laplace measurement at l = %d needs (l+1)beta <= horizon"
                % ell)
        family = "laplace0" if kk == 0 else (
            "laplace" if kk == cfg.k else "laplace@%d" % kk)
        nu = self.noise.complex_(family, sensor_id, ell)
        return MeasurementRecord(
            family, ell, sensor_id,
            self._laplace0(kk)[ell, self._index[sensor_id]] + nu, nu)


def sample_m(traj, g, n, cfg, sensor_id="g"):
    """One m-family record (standalone path, builds its own quadrature)."""
    return Sampler(traj, [(sensor_id, g)], cfg).m(n, sensor_id)


def sample_s(traj, g, n, cfg, sensor_id="g"):
    """One s-family record."""
    return Sampler(traj, [(sensor_id, g)], cfg).s(n, sensor_id)


def sample_laplace(traj, g, ell, cfg, sensor_id="g", k=None):
    """One Laplace record; k = 0 gives the subtrahend of Delta_{s,l}."""
    return Sampler(traj, [(sensor_id, g)], cfg).laplace(ell, sensor_id, k)


# ---------------------------------------------------------------------------
# Closed-form expansion oracles (noiseless)


def _inner_trap(f, g):
    return float(np.dot(f.values * trapezoid_weights(f.nodes), g.values))


def oracle_m_expansion(model, g, n, cfg):
    """Expansion of the noiseless m_n into catalyst terms plus background.

    Catalysts before the window contribute
        <h,g> e^{-rho(nb - t_j)} (e^{-rho b} - 1)/(-rho b);
    a catalyst with t_j in [nb, (n+1)b) contributes
        <h,g> (e^{-rho((n+1)b - t_j)} - 1)/(-rho b);
    the background adds int_0^b <eta(nb + t), g/b> dt.
    """
    beta = cfg.beta
    lo, hi = n * beta, (n + 1) * beta
    total = 0.0
    for c in model.catalysts:
        hg = _inner_trap(c.h, g)
        if c.t_intake < lo:
            total += hg * np.exp(-c.rho * (lo - c.t_intake)) \
                * (np.exp(-c.rho * beta) - 1.0) / (-c.rho * beta)
        elif c.t_intake < hi:
            total += hg * (np.exp(-c.rho * (hi - c.t_intake)) - 1.0) \
                / (-c.rho * beta)
    bg = model.background
    if not bg.is_zero:
        xr, wr = gauss_legendre(16)
        t = (lo + hi) / 2.0 + (beta / 2.0) * xr
        w = (beta / 2.0) * wr
        total += _inner_trap(bg.profile, g) * float(
            np.dot(w, bg.weight(t))) / beta
    return total


def oracle_delta_laplace(model, g, ell, cfg):
    """Closed-form Delta_{s,l} = m_{s,l} - m_{0,l} (noiseless).

    Per catalyst, with s = 2 pi i k / beta:
      t_j in [l b, (l+1) b]:
        [rho (e^{-s t_j} - 1) + s (e^{rho(t_j - (l+1)b)} - 1)]
            / (rho (rho + s) b^2) * <h,g>
      t_j < l b:
        s (e^{rho(t_j - (l+1)b)} - e^{rho(t_j - l b)})
            / (rho (rho + s) b^2) * <h,g>
    plus the background term (1/b^2) int (e^{-st} - 1) <eta, g> dt.
    """
    from .errors import ModelError

    beta = cfg.beta
    s = 2j * np.pi * cfg.k / beta
    lo, hi = ell * beta, (ell + 1) * beta
    in_window = [c for c in model.catalysts if lo <= c.t_intake <= hi]
    if len(in_window) > 1:
        raise ModelError(
            "oracle_delta_laplace needs at most one intake per window; "
            "window %d has %d" % (ell, len(in_window)))
    total = 0.0 + 0.0j
    for c in model.catalysts:
        if c.t_intake > hi:
            continue
        hg = _inner_trap(c.h, g)
        rho = c.rho
        denom = rho * (rho + s) * beta ** 2
        if c.t_intake >= lo:
            num = rho * (np.exp(-s * c.t_intake) - 1.0) \
                + s * (np.exp(rho * (c.t_intake - hi)) - 1.0)
        else:
            num = s * (np.exp(rho * (c.t_intake - hi))
                       - np.exp(rho * (c.t_intake - lo)))
        total += hg * num / denom
    bg = model.background
    if not bg.is_zero:
        xr, wr = gauss_legendre(GL_POINTS)
        t = (lo + hi) / 2.0 + (beta / 2.0) * xr
        w = (beta / 2.0) * wr
        pg = _inner_trap(bg.profile, g)
        total += pg * np.dot(w * bg.weight(t),
                             np.exp(-s * t) - 1.0) / beta ** 2
    return total


# ---------------------------------------------------------------------------
# Stream adapters for the detectors


class SampledStreams:
    """Detector-facing view of a Sampler; memoizes every record pulled."""

    def __init__(self, sampler):
        self.sampler = sampler
        self._records = {}

    @property
    def sensor_ids(self):
        return list(self.sampler.sensors)

    @property
    def sensors(self):
        return self.sampler.sensors

    @property
    def n_max(self):
        return self.sampler.cfg.n_max

    def _fetch(self, key, fn):
        if key not in self._records:
            self._records[key] = fn()
        return self._records[key]

    def m(self, n, sensor_id):
        rec = self._fetch(("m", n, sensor_id),
                          lambda: self.sampler.m(n, sensor_id))
        return float(np.real(rec.value))

    def s(self, n, sensor_id, n_sub=None):
        nsub = self.sampler.cfg.N if n_sub is None else int(n_sub)
        rec = self._fetch(("s", n, sensor_id, nsub),
                          lambda: self.sampler.s(n, sensor_id, nsub))
        return float(rec.value)

    def delta(self, ell, sensor_id):
        main = self._fetch(("laplace", ell, sensor_id),
                           lambda: self.sampler.laplace(ell, sensor_id))
        zero = self._fetch(("laplace0", ell, sensor_id),
                           lambda: self.sampler.laplace(ell, sensor_id, 0))
        return complex(main.value) - complex(zero.value)

    def records(self):
        """All records pulled so far, in a stable order for dumping."""
        order = {"m": 0, "s": 1, "laplace": 2, "laplace0": 3}
        return [self._records[k] for k in sorted(
            self._records,
            key=lambda k: (order.get(k[0], 9), k[1], str(k[2:])))]


class DictStreams:
    """Streams backed by explicit dictionaries (tests and replay).

    m and delta are keyed (sensor_id, index); s is keyed
    (sensor_id, index, n_sub) with a (sensor_id, index) fallback.
    """

    def __init__(self, m=None, s=None, delta=None, sensor_ids=None,
                 n_max=None):
        self._m = dict(m or {})
        self._s = dict(s or {})
        self._delta = dict(delta or {})
        if sensor_ids is None:
            sensor_ids = sorted({k[0] for k in self._m}
                                | {k[0] for k in self._delta})
        self.sensor_ids = list(sensor_ids)
        if n_max is None:
            indices = [k[1] for k in self._m] + [k[1] for k in self._delta]
            n_max = max(indices) if indices else -1
        self.n_max = n_max

    def m(self, n, sensor_id):
        try:
            return self._m[(sensor_id, n)]
        except KeyError:
            raise DataError(
                "missing m measurement at index %d for sensor %s"
                % (n, sensor_id)) from None

    def s(self, n, sensor_id, n_sub=None):
        if (sensor_id, n, n_sub) in self._s:
            return self._s[(sensor_id, n, n_sub)]
        try:
            return self._s[(sensor_id, n)]
        except KeyError:
            raise DataError(
                "missing s measurement at index %d for sensor %s"
                % (n, sensor_id)) from None

    def delta(self, ell, sensor_id):
        try:
            return self._delta[(sensor_id, ell)]
        except KeyError:
            raise DataError(
                "missing Delta measurement at index %d for sensor %s"
                % (ell, sensor_id)) from None


def dump_measurements(records, path):
    """Write records as CSV: family,index,sensor_id,re,im,noise_re,noise_im."""
    lines = ["family,index,sensor_id,re,im,noise_re,noise_im"]
    for rec in records:
        val = complex(rec.value)
        nu = complex(rec.noise_draw)
        lines.append("%s,%d,%s,%r,%r,%r,%r" % (
            rec.family, rec.index, rec.sensor_id,
            val.real, val.imag, nu.real, nu.imag))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
