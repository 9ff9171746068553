"""Cylindrical test functions: three flat families with exact partial derivatives.

A test function acts on the vector r of half-squared distances to a finite set
of anchor points.  The admissible class requires every partial derivative to
be strictly positive; the bounded subclass additionally caps the value with a
smooth saturation.  The checks need three families: ``Affine`` (const + w . r),
``TruncatedAffine`` (its smooth saturation iota_n, the bounded family) and
``SoftminPsi`` (the ladder's level-1 composite, a softmin of smoothed square
roots of weighted coordinates).

Every family evaluates rows: ``vag(r)`` takes r of shape (..., k), one vector
per leading index, and returns the values (...), the partials (..., k) and the
saturation flags (...); ``checked_vag`` also checks the positivity class.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Base family; ``vag`` returns (values, partials, saturation flags) of rows."""

    def vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounded(self) -> bool:
        return False

    def structurally_positive(self) -> bool:
        raise NotImplementedError

    def checked_vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and partials at the rows r, enforcing the positivity class.

        Strictly negative partials are rejected outright; exact zeros are
        accepted only when explained by saturation of a bounded truncation in
        the same row or by float underflow inside a structurally positive
        family.  One bad row rejects the batch.
        """
        v, g, sat = self.vag(r)
        if np.any(g < 0):
            raise ValueError("not in class T: nonpositive partial derivative")
        if np.any(np.any(g == 0, axis=-1) & ~sat) and not self.structurally_positive():
            raise ValueError("not in class T: nonpositive partial derivative")
        return v, g


def _affine_value(w: np.ndarray, const: float, r: np.ndarray) -> np.ndarray:
    """const + w_0 r_0 + w_1 r_1 + ..., added in coordinate order."""
    value = np.full(r.shape[:-1], const)
    for i, wi in enumerate(w):
        value += wi * r[..., i]
    return value


class Affine(CylNode):
    """const + w . r on k = len(w) coordinates; the partials are w."""

    def __init__(self, w, const: float = 0.0):
        self.w, self.const = np.array(w, dtype=float), float(const)

    def vag(self, r):
        return (_affine_value(self.w, self.const, r), np.broadcast_to(self.w, r.shape),
                np.zeros(r.shape[:-1], dtype=bool))

    def bounded(self):
        return self.w.size == 0  # a constant

    def structurally_positive(self):
        return bool(np.all(self.w > 0))


class TruncatedAffine(CylNode):
    """iota_n(const + w . r): bounded by n + 1, flat above n + 2, and equal
    to the affine family, partials too, below the knee (affine value <= n)."""

    def __init__(self, n: int, w, const: float = 0.0):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n, self.w, self.const = n, np.array(w, dtype=float), float(const)

    def vag(self, r):
        v = _affine_value(self.w, self.const, r)
        return iota(self.n, v), iota_prime(self.n, v)[..., None] * self.w, v >= self.n + 2

    def bounded(self):
        return True

    def structurally_positive(self):
        return bool(np.all(self.w > 0))


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
