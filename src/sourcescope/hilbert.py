"""Discretized Hilbert space H = L^2([0,1]).

Functions are represented by their values on a uniform grid of nodes over
[0,1].  Inner products use composite quadrature on that grid; time integrals
of sampled scalars use the same rules over arbitrary intervals.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError

DEFAULT_NODES = 257


def grid(nodes=DEFAULT_NODES):
    """Uniform node positions on [0,1]."""
    if nodes < 2:
        raise InputError("grid needs at least 2 nodes, got %d" % nodes)
    return np.linspace(0.0, 1.0, nodes)


@dataclass(frozen=True)
class GridFunction:
    """A vector of H: real sample values on the uniform grid over [0,1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InputError("GridFunction needs a 1-d array of >= 2 values")
        if not np.all(np.isfinite(vals)):
            raise InputError("GridFunction values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def nodes(self):
        return self.values.size

    @classmethod
    def from_callable(cls, fn, nodes=DEFAULT_NODES):
        x = grid(nodes)
        return cls(np.asarray(fn(x), dtype=float) * np.ones_like(x))

    @classmethod
    def zeros(cls, nodes=DEFAULT_NODES):
        return cls(np.zeros(nodes))

    def scaled(self, c):
        return GridFunction(self.values * float(c))

    def __add__(self, other):
        _check_same_nodes(self, other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other):
        _check_same_nodes(self, other)
        return GridFunction(self.values - other.values)


def _check_same_nodes(f, g):
    if f.nodes != g.nodes:
        raise DimensionError(
            "node count mismatch: %d vs %d" % (f.nodes, g.nodes))


@dataclass(frozen=True)
class Quadrature:
    """A 1-d composite quadrature rule on a reference interval."""

    rule: str = "trapezoid"
    panels: int = DEFAULT_NODES - 1
    gauss_order: int = 4

    def __post_init__(self):
        if self.rule not in ("trapezoid", "gauss-legendre"):
            raise InputError("unknown quadrature rule %r" % self.rule)
        if self.panels < 1:
            raise InputError("panels must be positive")

    def nodes_weights(self, a=0.0, b=1.0):
        """Nodes and weights for integrating over [a, b]."""
        if self.rule == "trapezoid":
            t = np.linspace(a, b, self.panels + 1)
            h = (b - a) / self.panels
            w = np.full(self.panels + 1, h)
            w[0] = w[-1] = h / 2.0
            return t, w
        return gauss_panels(a, b, self.panels, self.gauss_order)

    def integrate(self, fn, a=0.0, b=1.0):
        """Integrate a callable over [a, b] with this rule."""
        t, w = self.nodes_weights(a, b)
        return float(np.dot(w, fn(t)))


@functools.lru_cache(maxsize=None)
def gauss_legendre(points):
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per count."""
    xr, wr = np.polynomial.legendre.leggauss(points)
    xr.setflags(write=False)
    wr.setflags(write=False)
    return xr, wr


def gauss_panels(a, b, panels, order):
    """Composite Gauss-Legendre nodes/weights over [a, b]."""
    xr, wr = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    t = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    w = (half[:, None] * wr[None, :]).ravel()
    return t, w


def trapezoid_weights(nodes):
    """Trapezoid weights for the uniform grid on [0,1] with `nodes` points."""
    h = 1.0 / (nodes - 1)
    w = np.full(nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def inner(f, g, quad=None):
    """Approximate the L^2([0,1]) inner product of two grid functions."""
    _check_same_nodes(f, g)
    if quad is None or quad.rule == "trapezoid":
        panels = f.nodes - 1 if quad is None else quad.panels
        if panels != f.nodes - 1:
            raise DimensionError(
                "trapezoid rule with %d panels needs %d nodes, got %d"
                % (panels, panels + 1, f.nodes))
        w = trapezoid_weights(f.nodes)
    else:
        _, w = quad.nodes_weights(0.0, 1.0)
        if w.size != f.nodes:
            raise DimensionError(
                "quadrature has %d nodes but functions have %d"
                % (w.size, f.nodes))
    return float(np.dot(f.values * w, g.values))


def norm(f, quad=None):
    """L^2 norm induced by `inner`."""
    return float(np.sqrt(max(inner(f, f, quad), 0.0)))


def integrate_time(samples, rule=None):
    """Trapezoid integral of scalar samples [(t, v), ...] over [t0, t_last].

    Gauss rules place their own nodes, so sampled data cannot be integrated
    with them; request nodes via Quadrature.nodes_weights instead.
    """
    if rule is not None and rule.rule != "trapezoid":
        raise InputError(
            "integrate_time supports trapezoid only; for gauss rules sample "
            "at Quadrature.nodes_weights nodes and dot with the weights")
    pairs = list(samples)
    if len(pairs) < 2:
        raise InputError("integrate_time needs at least 2 samples")
    t = np.asarray([p[0] for p in pairs], dtype=float)
    v = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(np.diff(t) <= 0):
        raise InputError("sample times must be strictly increasing")
    return float(np.trapezoid(v, t))
