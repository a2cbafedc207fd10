"""Forward model: generator, semigroup, sources, and the mild solution.

The generator A is multiplication by a real symbol a(x) on the grid, so the
semigroup acts nodewise as T(t)f = e^{a(x)t} f(x) and A is self-adjoint.
The mild solution of  u' = Au + F,  u(0) = u0  with

    F(t) = sum_j h_j e^{-rho_j (t - t_j)} 1[t >= t_j] + eta(t)

is  u(t) = T(t)u0 + sum_{t_j < t} int_{t_j}^t T(t-s) h_j e^{-rho_j(s-t_j)} ds
         + int_0^t T(t-s) eta(s) ds.

Every term has a closed form in t and a(x) (see `_phi`); `Trajectory`
evaluates them once per distinct symbol value and projects onto sensors
without forming states.  `evolve_state` keeps a direct quadrature of the
background convolution as an independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ModelError
from .hilbert import GridFunction, _check_same_nodes, gauss_panels, norm

SINGULAR_TOL = 1e-9
DEFAULT_BETA_Q = 1e-3


@dataclass(frozen=True)
class MultiplicationGenerator:
    """A = multiplication by the real symbol a(x); A* = A."""

    symbol: GridFunction

    def semigroup(self, t, f):
        """T(t)f, nodewise e^{a(x)t} f(x).  T(0) is the exact identity."""
        _check_same_nodes(self.symbol, f)
        if t == 0.0:
            return f
        return GridFunction(np.exp(self.symbol.values * t) * f.values)

    def apply(self, f):
        """A f = a(x) f(x); also the adjoint action A* f."""
        _check_same_nodes(self.symbol, f)
        return GridFunction(self.symbol.values * f.values)


@dataclass(frozen=True)
class Catalyst:
    """One source term h e^{-rho (t - t_intake)} active from t_intake on."""

    h: GridFunction
    rho: float
    t_intake: float

    def __post_init__(self):
        if self.rho <= 0:
            raise InputError("catalyst decay rate must be positive")
        if self.t_intake < 0:
            raise InputError("intake time must be nonnegative")


_BACKGROUND_KINDS = ("exp_decay", "sinusoid", "zero")


@dataclass(frozen=True)
class BackgroundSource:
    """Background forcing eta(t)(x) = profile(x) * weight(t).

    kinds: exp_decay -> weight e^{-Lt}; sinusoid -> weight sin(Lt);
    zero -> no background.  With ||profile|| <= 1 both kinds are Lipschitz
    in t with constant L.
    """

    kind: str
    L: float
    profile: GridFunction

    def __post_init__(self):
        if self.kind not in _BACKGROUND_KINDS:
            raise InputError("unknown background kind %r" % self.kind)
        if self.L < 0:
            raise InputError("Lipschitz constant must be nonnegative")

    def weight(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exp_decay":
            return np.exp(-self.L * t)
        if self.kind == "sinusoid":
            return np.sin(self.L * t)
        return np.zeros_like(t)

    def at(self, t):
        return GridFunction(self.profile.values * float(self.weight(t)))

    @property
    def is_zero(self):
        return self.kind == "zero" or (
            self.kind == "sinusoid" and self.L == 0.0)


def zero_background(nodes):
    return BackgroundSource("zero", 0.0, GridFunction(np.zeros(nodes)))


@dataclass(frozen=True)
class SourceModel:
    """Catalysts plus background, with the a-priori constants of the theory.

    H bounds the catalyst masses sup_j ||h_j||; D is the guaranteed extra
    separation between intake times; [rho_lo, rho_hi] brackets the decay
    rates.
    """

    u0: GridFunction
    catalysts: tuple
    background: BackgroundSource
    D: float
    H: float
    rho_lo: float
    rho_hi: float

    def __post_init__(self):
        object.__setattr__(self, "catalysts", tuple(self.catalysts))
        if not (0 < self.rho_lo <= self.rho_hi):
            raise ModelError("need 0 < rho_lo <= rho_hi")
        if self.D <= 0:
            raise ModelError("separation D must be positive")
        times = [c.t_intake for c in self.catalysts]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ModelError("catalysts must be ordered by intake time")
        for c in self.catalysts:
            if not (self.rho_lo - 1e-12 <= c.rho <= self.rho_hi + 1e-12):
                raise ModelError(
                    "catalyst rate %g outside [rho_lo, rho_hi] = [%g, %g]"
                    % (c.rho, self.rho_lo, self.rho_hi))
            if norm(c.h) > self.H + 1e-9:
                raise ModelError(
                    "catalyst mass %g exceeds bound H = %g"
                    % (norm(c.h), self.H))

    @property
    def nodes(self):
        return self.u0.nodes


def catalyst_response(a, c, t):
    """int_{t_j}^t T(t-s) h e^{-rho(s-t_j)} ds, nodewise closed form."""
    if t < c.t_intake:
        raise InputError(
            "catalyst_response asked at t = %g before intake %g"
            % (t, c.t_intake))
    return GridFunction(
        _phi(a.symbol.values, c.rho, [t - c.t_intake])[0] * c.h.values)


def _phi(lam, r, tau):
    """int_0^tau e^{lam(tau-s)} e^{-rs} ds, shape (len(tau), len(lam)).

    Equal to (e^{lam tau} - e^{-r tau}) / d with d = lam + r (r may be
    complex), it is written as e^{lead tau} expm1(q tau) / q with
    Re(q) <= 0, so nothing overflows when the result is finite; below
    SINGULAR_TOL the limit tau e^{-r tau} is used.  Zero for tau <= 0.
    """
    tau = np.maximum(np.asarray(tau, dtype=float), 0.0)[:, None]
    d = lam + r
    up = d.real >= 0
    q = np.where(up, -d, d)
    lead = np.where(up, lam, -r)
    singular = np.abs(d) < SINGULAR_TOL
    safe = np.where(singular, 1.0, q)
    regular = np.exp(lead * tau) * np.expm1(safe * tau) / safe
    limit = tau * np.exp(-r * tau)
    return np.where(singular, limit, regular)


def forcing_values(model, ts):
    """F(t) = catalyst sum + background, shape (len(ts), nodes)."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.size, model.nodes))
    for c in model.catalysts:
        dt = ts - c.t_intake
        active = dt >= 0
        out[active] += np.outer(np.exp(-c.rho * dt[active]), c.h.values)
    if not model.background.is_zero:
        out += np.outer(model.background.weight(ts),
                        model.background.profile.values)
    return out


def background_exp_oracle(a, bg, t):
    """Closed-form background convolution for kind = exp_decay.

    int_0^t e^{a(x)(t-s)} e^{-Ls} ds * profile(x)
        = profile(x) (e^{a(x)t} - e^{-Lt}) / (a(x) + L),
    with the removable-singularity limit t e^{-Lt} when a(x) + L ~ 0.
    """
    if bg.kind != "exp_decay":
        raise InputError("closed form available for exp_decay only")
    avals = a.symbol.values
    denom = avals + bg.L
    singular = np.abs(denom) < SINGULAR_TOL
    safe = np.where(singular, 1.0, denom)
    regular = (np.exp(avals * t) - np.exp(-bg.L * t)) / safe
    limit = t * np.exp(-bg.L * t)
    return GridFunction(bg.profile.values * np.where(singular, limit, regular))


class Trajectory:
    """The mild solution u(t) for t in [0, horizon], in closed form.

    Component c is a time factor F_c(t, a) times a vector v_c: e^{at} u0,
    phi(a, rho_j, t - t_j) h_j, and phi(a, L, t) or Im phi(a, -iL, t) times
    the background profile.  The factors are evaluated once per distinct
    symbol value, the spectrum of the multiplication operator.
    """

    def __init__(self, model, a, horizon):
        if horizon <= 0:
            raise InputError("horizon must be positive")
        _check_same_nodes(model.u0, a.symbol)
        self.model = model
        self.generator = a
        self.horizon = float(horizon)
        self._lam, self._group, counts = np.unique(
            a.symbol.values, return_inverse=True, return_counts=True)
        self._order = np.argsort(self._group, kind="stable")
        self._starts = np.cumsum(counts) - counts
        bg = model.background
        terms = [(None, 0.0, model.u0.values)]
        terms += [(c.rho, c.t_intake, c.h.values) for c in model.catalysts]
        if not bg.is_zero:
            rate = bg.L if bg.kind == "exp_decay" else -1j * bg.L
            terms.append((rate, 0.0, bg.profile.values))
        terms = [t for t in terms if np.any(t[2])]
        self._terms = [(r, t0) for r, t0, _ in terms]
        self._vectors = np.reshape([v for *_, v in terms], (-1, model.nodes))

    def state(self, t):
        return GridFunction(self.state_values(np.asarray([t]))[0])

    def state_values(self, ts):
        """u(t) for each t in ts, shape (len(ts), nodes): the factors
        scattered back onto the nodes."""
        return np.einsum("tcx,cx->tx", self._factors(ts)[:, :, self._group],
                         self._vectors)

    def projected(self, ts, W, chunk=1024):
        """state_values(ts) @ W without forming states: sum_c F_c(ts) @ C_c,
        with C_c = v_c * W summed over each group of equal symbol values."""
        W = np.asarray(W, dtype=float)[self._order]
        width = len(self._terms) * self._lam.size
        cols = np.add.reduceat(self._vectors[:, self._order, None] * W,
                               self._starts, axis=1).reshape(width, W.shape[1])
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, W.shape[1]))
        for lo in range(0, ts.size, chunk):
            part = ts[lo:lo + chunk]
            out[lo:lo + part.size] = \
                self._factors(part).reshape(part.size, width) @ cols
        if not np.all(np.isfinite(out)):
            raise self._overflow()
        return out

    def _factors(self, ts):
        """F_c(t, a_k), shape (len(ts), components, distinct values)."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0) or np.any(ts > self.horizon + 1e-12):
            raise InputError("trajectory evaluated outside [0, horizon]")
        out = np.empty((ts.size, len(self._terms), self._lam.size))
        try:
            with np.errstate(over="raise", invalid="raise"):
                for c, (r, t0) in enumerate(self._terms):
                    f = np.exp(np.outer(ts, self._lam)) if r is None \
                        else _phi(self._lam, r, ts - t0)
                    out[:, c] = f.imag if np.iscomplexobj(f) else f
        except FloatingPointError:
            raise self._overflow() from None
        return out

    def _overflow(self):
        return ModelError("the state overflows floating point: max(a) * "
                          "horizon = %g" % (self._lam[-1] * self.horizon))


def evolve_state(model, a, t, q=None, beta_q=DEFAULT_BETA_Q):
    """Mild solution u(t) evaluated directly (no trajectory cache).

    The background convolution uses composite Gauss quadrature with at
    least ceil(t / beta_q) panels.  `q` may override the panel count.
    """
    if t < 0:
        raise InputError("evolve_state asked at negative time")
    avals = a.symbol.values
    u = np.exp(avals * t) * model.u0.values
    for c in model.catalysts:
        u += _phi(avals, c.rho, [t - c.t_intake])[0] * c.h.values
    bg = model.background
    if not bg.is_zero and t > 0:
        panels = max(int(np.ceil(t / beta_q)), 1)
        if q is not None:
            panels = max(panels, q.panels)
        s, w = gauss_panels(0.0, t, panels, 8)
        kernel = np.exp(np.multiply.outer(t - s, avals))
        u += bg.profile.values * np.einsum(
            "m,mx->x", w * bg.weight(s), kernel)
    return GridFunction(u)
