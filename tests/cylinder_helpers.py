"""Test-only helpers for the cylinder families of ``hjflow.cylinders``.

The combinator tree below (``Coord``, ``Affine``, ``Iota``, ``Shift``, the
``CylindricalTestFunction`` wrapper and ``truncate_cylinder``) is the tree the
package built its test functions from before the three flat families replaced
it, kept verbatim as an oracle.  Its nodes return (values, partials, saturation
flags) and carry ``structurally_positive``; the wrapper keeps the row-level
class check that the package once ran on every evaluated row.  The wrapper is
an ``hjflow.cylinders.CylNode`` whose ``vag`` is that checked evaluation, so a
wrapped tree plugs into the pair builders as a flat family does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hjflow.cylinders import CylNode, iota, iota_prime


class TreeNode:
    """Base tree node; ``vag`` returns (values, partials, saturation flags) of rows."""

    def vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounded(self) -> bool:
        return False

    def structurally_positive(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Coord(TreeNode):
    index: int

    def vag(self, r):
        grad = np.zeros(r.shape)
        grad[..., self.index] = 1.0
        return r[..., self.index], grad, np.zeros(r.shape[:-1], dtype=bool)

    def structurally_positive(self):
        return True


@dataclass(frozen=True)
class Affine(TreeNode):
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


@dataclass(frozen=True)
class Iota(TreeNode):
    """Smooth saturation of a child; bounded by n + 1, flat above n + 2."""

    n: int
    child: TreeNode

    def vag(self, r):
        v, g, s = self.child.vag(r)
        return iota(self.n, v), iota_prime(self.n, v)[..., None] * g, s | (v >= self.n + 2)

    def bounded(self):
        return True

    def structurally_positive(self):
        return self.child.structurally_positive()


@dataclass(frozen=True)
class Shift(TreeNode):
    """Re-index a child to act on coordinates offset, offset+1, ..."""

    child: TreeNode
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
class CylindricalTestFunction(CylNode):
    """Base function on the half-squared distances d^2(., anchors)/2; anchors are
    coordinate rows.  As a family, ``vag`` is ``base_value_and_grad``."""

    base: TreeNode
    anchors: tuple = ()

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

    def vag(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.base_value_and_grad(r)

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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def identity_phi() -> CylindricalTestFunction:
    """The tree phi(r) = r_0, wrapped for the pair builders."""
    return CylindricalTestFunction(base=affine_phi([1.0]))


def finite_difference_grad(node, r: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a family or tree on the rows r, for cross-checking."""
    out = np.zeros(r.shape)
    for i in range(r.shape[-1]):
        up = r.copy()
        dn = r.copy()
        up[..., i] += h
        dn[..., i] = np.maximum(dn[..., i] - h, 0.0)
        vu, vd = node.vag(up)[0], node.vag(dn)[0]
        out[..., i] = (vu - vd) / (up[..., i] - dn[..., i])
    return out
