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
returns the values (...) and the partials (..., k).  A family may hold N
instances on a leading axis: its scalar parameters (n, const, eps, m, b, c)
then have shape (N,) and its weights (N, k), the rows r (..., N, k)
broadcast against them, and every instance gets the bits of its own
one-instance family.
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


def _affine_value(w: np.ndarray, const, r: np.ndarray) -> np.ndarray:
    """const + w_0 r_0 + w_1 r_1 + ..., added in coordinate order."""
    value = np.full(r.shape[:-1], const)
    for i in range(w.shape[-1]):
        value += w[..., i] * r[..., i]
    return value


class Affine(CylNode):
    """const + w . r on k = len(w) coordinates; the partials are w."""

    def __init__(self, w, const=0.0):
        self.w, self.const = _positive(w), np.asarray(const, dtype=float)

    def vag(self, r):
        return _affine_value(self.w, self.const, r), np.broadcast_to(self.w, r.shape)

    def bounded(self):
        return self.w.shape[-1] == 0  # a constant


class TruncatedAffine(CylNode):
    """iota_n(const + w . r): bounded by n + 1, flat above n + 2, and equal
    to the affine family, partials too, below the knee (affine value <= n)."""

    def __init__(self, n, w, const=0.0):
        if np.any(np.asarray(n) < 1):
            raise ValueError("n must be >= 1")
        self.n, self.w, self.const = n, _positive(w), np.asarray(const, dtype=float)

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

    eps: float | np.ndarray
    m: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    w: np.ndarray
    log_w: np.ndarray

    def __post_init__(self):
        _positive(self.b)
        _positive(self.w)

    def vag(self, r):
        # eps, m and b meet the coordinates of r on a trailing axis
        psi, psi_p = psi_eps_and_prime(np.expand_dims(self.eps, -1), r)
        exponents = self.log_w - np.expand_dims(self.m, -1) * (self.w * psi)
        lse = logsumexp(exponents, axis=-1)
        soft = np.exp(exponents - lse[..., None])
        value = self.c + self.b * (-lse / self.m)
        grad = np.expand_dims(self.b, -1) * (soft * (self.w * psi_p))
        return value, grad
