"""Cylindrical test functions: three flat families with exact partial derivatives.

A test function acts on the vector r of half-squared distances to a finite set
of anchor points.  The admissible class T requires every partial derivative to
be strictly positive; the bounded subclass additionally caps the value with a
smooth saturation.  The checks need three families: ``Affine`` (const + w . r),
``TruncatedAffine`` (its smooth saturation iota_n, the bounded family) and
``SoftminPsi`` (the ladder's level-1 composite, a softmin of smoothed square
roots of weighted coordinates).

A family is in class T exactly when its weights (and b) are positive, so it
checks them once, when it is built.  ``vag(r)`` takes rows r (..., k) and
returns the values (...) and the partials (..., k).
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


def _positive(values) -> np.ndarray:
    """``values`` as a float array, rejected unless every entry is > 0 (NaN too)."""
    arr = np.array(values, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("not in class T: nonpositive partial derivative")
    return arr


class CylNode:
    """Base family; ``vag`` returns (values, partials) of rows."""

    def vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounded(self) -> bool:
        return False


def _affine_value(w: np.ndarray, const: float, r: np.ndarray) -> np.ndarray:
    """const + w_0 r_0 + w_1 r_1 + ..., added in coordinate order."""
    value = np.full(r.shape[:-1], const)
    for i, wi in enumerate(w):
        value += wi * r[..., i]
    return value


class Affine(CylNode):
    """const + w . r on k = len(w) coordinates; the partials are w."""

    def __init__(self, w, const: float = 0.0):
        self.w, self.const = _positive(w), float(const)

    def vag(self, r):
        return _affine_value(self.w, self.const, r), np.broadcast_to(self.w, r.shape)

    def bounded(self):
        return self.w.size == 0  # a constant


class TruncatedAffine(CylNode):
    """iota_n(const + w . r): bounded by n + 1, flat above n + 2, and equal
    to the affine family, partials too, below the knee (affine value <= n)."""

    def __init__(self, n: int, w, const: float = 0.0):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n, self.w, self.const = n, _positive(w), float(const)

    def vag(self, r):
        v = _affine_value(self.w, self.const, r)
        return iota(self.n, v), iota_prime(self.n, v)[..., None] * self.w

    def bounded(self):
        return True


@dataclass(frozen=True, eq=False)
class SoftminPsi(CylNode):
    """c + b (-1/m) log sum_i exp(log_w_i - m w_i psi_eps(r_i)).

    A softmin of the smoothed square roots of the weighted coordinates.  The
    partials b soft_i w_i psi_eps'(r_i) are diagonal, so one expression gives
    all of them; they are positive, up to underflow of the softmin weights
    soft_i, because b > 0 and every w_i > 0, checked when the node is built.
    """

    eps: float
    m: float
    b: float
    c: float
    w: np.ndarray
    log_w: np.ndarray

    def __post_init__(self):
        _positive([self.b, *self.w])

    def vag(self, r):
        psi, psi_p = psi_eps_and_prime(self.eps, r)
        exponents = self.log_w - self.m * (self.w * psi)
        lse = logsumexp(exponents, axis=-1)
        soft = np.exp(exponents - lse[..., None])
        value = self.c + self.b * (-lse / self.m)
        grad = self.b * (soft * (self.w * psi_p))
        return value, grad
