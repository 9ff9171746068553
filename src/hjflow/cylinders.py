"""Cylindrical test functions as combinator trees with exact partial derivatives.

A test function acts on the vector r of half-squared distances to a finite set
of anchor points.  The admissible class requires every partial derivative to
be strictly positive; the bounded subclass additionally caps the value with a
smooth saturation.  Representing the functions as a small closed combinator
family (affine, smoothed square root, exponential log-sum, saturation,
composition) keeps the partials exact and the class constraints checkable,
which arbitrary callables would not allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .spaces import SpacePoint
from .tataru import psi_eps, psi_eps_prime


def iota(n: int, r):
    """Smooth saturation: identity below n, constant n + 1 above n + 2.

    On [n, n+2] a quadratic blend matches value and derivative at both knees;
    iota(r) <= r and iota is nondecreasing everywhere.
    """
    arr = np.asarray(r, dtype=float)
    s = np.clip((arr - n) / 2.0, 0.0, 1.0)
    mid = n + 2.0 * s - s * s
    out = np.where(arr <= n, arr, np.where(arr >= n + 2, n + 1.0, mid))
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def iota_prime(n: int, r):
    arr = np.asarray(r, dtype=float)
    s = np.clip((arr - n) / 2.0, 0.0, 1.0)
    out = np.where(arr <= n, 1.0, np.where(arr >= n + 2, 0.0, 1.0 - s))
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


class CylNode:
    """Base combinator; ``vag`` returns (value, gradient, saturated-flag)."""

    def vag(self, r: np.ndarray) -> tuple[float, np.ndarray, bool]:
        raise NotImplementedError

    def bounded(self) -> bool:
        return False

    def structurally_positive(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Coord(CylNode):
    index: int

    def vag(self, r):
        grad = np.zeros(r.size)
        grad[self.index] = 1.0
        return float(r[self.index]), grad, False

    def structurally_positive(self):
        return True


@dataclass(frozen=True)
class Affine(CylNode):
    """const + sum of weight * child."""

    terms: tuple
    const: float = 0.0

    def vag(self, r):
        value = self.const
        grad = np.zeros(r.size)
        sat = False
        for w, node in self.terms:
            v, g, s = node.vag(r)
            value += w * v
            grad += w * g
            sat = sat or s
        return value, grad, sat

    def bounded(self):
        return all(node.bounded() for _, node in self.terms)

    def structurally_positive(self):
        return all(w > 0 and node.structurally_positive() for w, node in self.terms)


@dataclass(frozen=True)
class Psi(CylNode):
    """Smoothed square root of a child value."""

    eps: float
    child: CylNode

    def vag(self, r):
        v, g, s = self.child.vag(r)
        return float(psi_eps(self.eps, v)), float(psi_eps_prime(self.eps, v)) * g, s

    def bounded(self):
        return self.child.bounded()

    def structurally_positive(self):
        return self.child.structurally_positive()


@dataclass(frozen=True)
class SumExpNegLog(CylNode):
    """const + scale * (-1/m) log sum_i exp(log_coeff_i - m * child_i).

    The partials are scale times the softmin weights times the children's
    partials, hence positive whenever scale > 0 and the children are in class.
    """

    m: float
    scale: float
    log_coeffs: tuple
    children: tuple
    const: float = 0.0

    def vag(self, r):
        vals = []
        grads = []
        sat = False
        for node in self.children:
            v, g, s = node.vag(r)
            vals.append(v)
            grads.append(g)
            sat = sat or s
        exponents = np.asarray(self.log_coeffs) - self.m * np.asarray(vals)
        lse = float(logsumexp(exponents))
        soft = np.exp(exponents - lse)
        value = self.const + self.scale * (-lse / self.m)
        grad = self.scale * sum(w * g for w, g in zip(soft, grads))
        return value, grad, sat

    def bounded(self):
        return all(node.bounded() for node in self.children)

    def structurally_positive(self):
        return self.scale > 0 and all(n.structurally_positive() for n in self.children)


@dataclass(frozen=True)
class Iota(CylNode):
    """Smooth saturation of a child; bounded by n + 1, flat above n + 2."""

    n: int
    child: CylNode

    def vag(self, r):
        v, g, s = self.child.vag(r)
        return float(iota(self.n, v)), float(iota_prime(self.n, v)) * g, s or v >= self.n + 2

    def bounded(self):
        return True

    def structurally_positive(self):
        return self.child.structurally_positive()


@dataclass(frozen=True)
class Shift(CylNode):
    """Re-index a child to act on coordinates offset, offset+1, ..."""

    child: CylNode
    offset: int

    def vag(self, r):
        v, g, s = self.child.vag(r[self.offset:])
        grad = np.zeros(r.size)
        grad[self.offset:] = g
        return v, grad, s

    def bounded(self):
        return self.child.bounded()

    def structurally_positive(self):
        return self.child.structurally_positive()


def affine_phi(weights: Sequence[float], const: float = 0.0) -> Affine:
    """phi(r) = sum w_i r_i + const on k = len(weights) coordinates."""
    return Affine(terms=tuple((float(w), Coord(i)) for i, w in enumerate(weights)),
                  const=float(const))


def identity_phi() -> Affine:
    return affine_phi([1.0])


@dataclass(frozen=True)
class CylindricalTestFunction:
    """Base function on the half-squared distances d^2(., anchors)/2."""

    base: CylNode
    anchors: tuple

    def base_value_and_grad(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and partials of the base, enforcing the positivity class.

        Strictly negative partials are rejected outright; exact zeros are
        accepted only when explained by saturation of a bounded truncation or
        by float underflow inside a structurally positive composite.
        """
        v, g, sat = self.base.vag(r)
        if np.any(g < 0):
            raise ValueError("not in class T: nonpositive partial derivative")
        if np.any(g == 0) and not (sat or self.base.structurally_positive()):
            raise ValueError("not in class T: nonpositive partial derivative")
        return v, g

    def bounded(self) -> bool:
        return self.base.bounded()


def finite_difference_grad(node: CylNode, r: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a combinator tree, for cross-checking."""
    out = np.zeros(r.size)
    for i in range(r.size):
        up = r.copy()
        dn = r.copy()
        up[i] += h
        dn[i] = max(dn[i] - h, 0.0)
        vu, _, _ = node.vag(up)
        vd, _, _ = node.vag(dn)
        out[i] = (vu - vd) / (up[i] - dn[i])
    return out


def truncate_cylinder(phi0: CylindricalTestFunction, a: float, rho: SpacePoint,
                      n: int) -> CylindricalTestFunction:
    """Bounded composite iota_n(a r0 + phi0(r)) with the quadratic anchor first.

    Below the knee (inner value <= n) the composite and its partials agree
    with a r0 + phi0, so the pair built from it matches the unbounded one
    there; above n + 2 it is constant n + 1, hence in the bounded class.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    inner = Affine(terms=((float(a), Coord(0)), (1.0, Shift(phi0.base, 1))))
    return CylindricalTestFunction(base=Iota(n, inner), anchors=(rho, *phi0.anchors))
