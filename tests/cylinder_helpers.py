"""Test-only helpers for the combinator trees of ``hjflow.cylinders``."""

from __future__ import annotations

import numpy as np

from hjflow.cylinders import Affine, CylNode, affine_phi


def identity_phi() -> Affine:
    return affine_phi([1.0])


def finite_difference_grad(node: CylNode, r: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a combinator tree on the rows r, for cross-checking."""
    out = np.zeros(r.shape)
    for i in range(r.shape[-1]):
        up = r.copy()
        dn = r.copy()
        up[..., i] += h
        dn[..., i] = np.maximum(dn[..., i] - h, 0.0)
        vu, _, _ = node.vag(up)
        vd, _, _ = node.vag(dn)
        out[..., i] = (vu - vd) / (up[..., i] - dn[..., i])
    return out
