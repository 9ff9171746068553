"""Cylindrical test functions as combinator trees with exact partial derivatives.

A test function acts on the vector r of half-squared distances to a finite set
of anchor points.  The admissible class requires every partial derivative to
be strictly positive; the bounded subclass additionally caps the value with a
smooth saturation.  Representing the functions as a small closed combinator
family (affine, saturation, re-indexing, and the array node ``SoftminPsi``, a
softmin of smoothed square roots of weighted coordinates that is the ladder's
level-1 composite) keeps the partials exact and the class constraints
checkable, which arbitrary callables would not allow.

Every combinator evaluates rows: ``vag(r)`` takes r of shape (..., k), one
vector per leading index, and returns the values (...), the partials (..., k)
and the saturation flags (...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tataru import logsumexp, psi_eps_and_prime


def iota(n: int, r):
    """Smooth saturation: identity below n, constant n + 1 above n + 2.

    On [n, n+2] a quadratic blend matches value and derivative at both knees;
    iota(r) <= r and iota is nondecreasing everywhere.
    """
    arr = np.asarray(r, dtype=float)
    s = np.clip((arr - n) / 2.0, 0.0, 1.0)
    mid = n + 2.0 * s - s * s
    return np.where(arr <= n, arr, np.where(arr >= n + 2, n + 1.0, mid))


def iota_prime(n: int, r):
    arr = np.asarray(r, dtype=float)
    s = np.clip((arr - n) / 2.0, 0.0, 1.0)
    return np.where(arr <= n, 1.0, np.where(arr >= n + 2, 0.0, 1.0 - s))


class CylNode:
    """Base combinator; ``vag`` returns (values, partials, saturation flags) of rows."""

    def vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounded(self) -> bool:
        return False

    def structurally_positive(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Coord(CylNode):
    index: int

    def vag(self, r):
        grad = np.zeros(r.shape)
        grad[..., self.index] = 1.0
        return r[..., self.index], grad, np.zeros(r.shape[:-1], dtype=bool)

    def structurally_positive(self):
        return True


@dataclass(frozen=True)
class Affine(CylNode):
    """const + sum of weight * child."""

    terms: tuple
    const: float = 0.0

    def vag(self, r):
        value = np.full(r.shape[:-1], self.const)
        grad = np.zeros(r.shape)
        sat = np.zeros(r.shape[:-1], dtype=bool)
        for w, node in self.terms:
            v, g, s = node.vag(r)
            value += w * v
            grad += w * g
            sat |= s
        return value, grad, sat

    def bounded(self):
        return all(node.bounded() for _, node in self.terms)

    def structurally_positive(self):
        return all(w > 0 and node.structurally_positive() for w, node in self.terms)


@dataclass(frozen=True, eq=False)
class SoftminPsi(CylNode):
    """c + b (-1/m) log sum_i exp(log_w_i - m w_i psi_eps(r_i)).

    A softmin of the smoothed square roots of the weighted coordinates.  The
    partials b soft_i w_i psi_eps'(r_i) are diagonal, so one expression gives
    all of them; they are positive when b > 0 and every w_i > 0, up to
    underflow of the softmin weights soft_i.
    """

    eps: float
    m: float
    b: float
    c: float
    w: np.ndarray
    log_w: np.ndarray

    def vag(self, r):
        psi, psi_p = psi_eps_and_prime(self.eps, r)
        exponents = self.log_w - self.m * (self.w * psi)
        lse = logsumexp(exponents, axis=-1)
        soft = np.exp(exponents - lse[..., None])
        value = self.c + self.b * (-lse / self.m)
        grad = self.b * (soft * (self.w * psi_p))
        return value, grad, np.zeros(r.shape[:-1], dtype=bool)

    def structurally_positive(self):
        return self.b > 0 and bool(np.all(self.w > 0))


@dataclass(frozen=True)
class Iota(CylNode):
    """Smooth saturation of a child; bounded by n + 1, flat above n + 2."""

    n: int
    child: CylNode

    def vag(self, r):
        v, g, s = self.child.vag(r)
        return iota(self.n, v), iota_prime(self.n, v)[..., None] * g, s | (v >= self.n + 2)

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
        v, g, s = self.child.vag(r[..., self.offset:])
        grad = np.zeros(r.shape)
        grad[..., self.offset:] = g
        return v, grad, s

    def bounded(self):
        return self.child.bounded()

    def structurally_positive(self):
        return self.child.structurally_positive()


def affine_phi(weights: Sequence[float], const: float = 0.0) -> Affine:
    """phi(r) = sum w_i r_i + const on k = len(weights) coordinates."""
    return Affine(terms=tuple((float(w), Coord(i)) for i, w in enumerate(weights)),
                  const=float(const))


@dataclass(frozen=True)
class CylindricalTestFunction:
    """Base function on the half-squared distances d^2(., anchors)/2; anchors are
    coordinate rows."""

    base: CylNode
    anchors: tuple

    def base_value_and_grad(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and partials of the base on the rows r, enforcing the positivity class.

        Strictly negative partials are rejected outright; exact zeros are
        accepted only when explained by saturation of a bounded truncation in
        the same row or by float underflow inside a structurally positive
        composite.  One bad row rejects the batch.
        """
        v, g, sat = self.base.vag(r)
        if np.any(g < 0):
            raise ValueError("not in class T: nonpositive partial derivative")
        if np.any(np.any(g == 0, axis=-1) & ~sat) and not self.base.structurally_positive():
            raise ValueError("not in class T: nonpositive partial derivative")
        return v, g

    def bounded(self) -> bool:
        return self.base.bounded()


def truncate_cylinder(phi0: CylindricalTestFunction, a: float, rho: np.ndarray,
                      n: int) -> CylindricalTestFunction:
    """Bounded composite iota_n(a r0 + phi0(r)) with the quadratic anchor row rho first.

    Below the knee (inner value <= n) the composite and its partials agree
    with a r0 + phi0, so the pair built from it matches the unbounded one
    there; above n + 2 it is constant n + 1, hence in the bounded class.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    inner = Affine(terms=((float(a), Coord(0)), (1.0, Shift(phi0.base, 1))))
    return CylindricalTestFunction(base=Iota(n, inner), anchors=(rho, *phi0.anchors))
