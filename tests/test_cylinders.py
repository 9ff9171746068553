import numpy as np
import pytest

from hjflow.cylinders import (
    Affine,
    Coord,
    CylindricalTestFunction,
    Iota,
    Shift,
    affine_phi,
    iota,
    iota_prime,
    truncate_cylinder,
)

from cylinder_helpers import finite_difference_grad, identity_phi
from test_pair_oracles import Psi, SumExpNegLog


def test_iota_plateau_and_identity():
    assert iota(2, 1.5) == 1.5
    assert iota(2, 2.0) == 2.0
    assert iota(2, 4.0) == 3.0
    assert iota(2, 17.0) == 3.0
    r = np.linspace(0, 8, 1001)
    vals = iota(3, r)
    assert np.all(vals <= r + 1e-15)
    assert np.all(np.diff(vals) >= -1e-15)


def test_iota_derivative_matches_knees():
    for n in (1, 4):
        for r in (n - 0.5, n, n + 1.0, n + 2.0, n + 3.0):
            h = 1e-7
            fd = (iota(n, r + h) - iota(n, r - h)) / (2 * h)
            assert iota_prime(n, r) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("node,k", [
    (affine_phi([0.7, 1.3], 0.2), 2),
    (Psi(0.25, Coord(0)), 1),
    (Affine(terms=((0.5, Psi(0.1, Coord(1))), (1.0, Coord(0))), const=0.3), 2),
    (SumExpNegLog(m=8.0, scale=1.2, log_coeffs=(-0.1, -0.7),
                  children=(Psi(0.2, Coord(0)), Psi(0.2, Coord(1))), const=0.4), 2),
    (Iota(2, Affine(terms=((1.0, Coord(0)), (0.8, Coord(1))))), 2),
    (Shift(affine_phi([0.9]), 1), 2),
])
def test_symbolic_gradients_match_finite_differences(node, k, rng):
    r = rng.uniform(0.05, 2.5, size=(10, k))
    _, grad, _ = node.vag(r)
    fd = finite_difference_grad(node, r)
    assert np.allclose(grad, fd, atol=1e-6)


def test_class_positivity_enforced():
    bad = CylindricalTestFunction(base=affine_phi([-0.5]), anchors=(None,))
    with pytest.raises(ValueError, match="not in class T"):
        bad.base_value_and_grad(np.array([1.0]))
    zero = CylindricalTestFunction(base=affine_phi([0.0]), anchors=(None,))
    with pytest.raises(ValueError, match="not in class T"):
        zero.base_value_and_grad(np.array([1.0]))


def test_saturated_truncation_is_allowed():
    fun = CylindricalTestFunction(base=Iota(1, affine_phi([1.0])), anchors=(None,))
    v, g = fun.base_value_and_grad(np.array([5.0]))
    assert v == 2.0
    assert g[0] == 0.0


def test_boundedness_flags():
    assert not identity_phi().bounded()
    assert Iota(3, affine_phi([1.0, 1.0])).bounded()
    assert not SumExpNegLog(m=2.0, scale=1.0, log_coeffs=(0.0,),
                            children=(Coord(0),)).bounded()


def test_truncate_cylinder_below_knee_agreement(ou, rng):
    phi0 = CylindricalTestFunction(base=affine_phi([0.4, 0.8], 0.1), anchors=(None, None))
    a = 0.9
    trunc = truncate_cylinder(phi0, a, None, n=50)
    assert trunc.base.bounded()
    r = rng.uniform(0.0, 2.0, size=(10, 3))
    v_t, g_t, _ = trunc.base.vag(r)
    inner = a * r[:, 0] + 0.4 * r[:, 1] + 0.8 * r[:, 2] + 0.1
    assert v_t == pytest.approx(inner, abs=1e-12)
    assert np.allclose(g_t, [a, 0.4, 0.8], atol=1e-12)
    # far above the knee the value saturates at n + 1
    v_t, g_t, sat = trunc.base.vag(np.array([200.0, 0.0, 0.0]))
    assert v_t == 51.0
    assert sat


def test_truncate_cylinder_rejects_leading():
    with pytest.raises(ValueError, match="n must be"):
        truncate_cylinder(CylindricalTestFunction(base=affine_phi([1.0]), anchors=(None,)),
                          1.0, None, 0)
