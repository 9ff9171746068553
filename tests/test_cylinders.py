import numpy as np
import pytest

from hjflow import cylinders as flat
from hjflow.cylinders import SoftminPsi, TruncatedAffine, iota, iota_prime

from cylinder_helpers import (
    Affine,
    Coord,
    CylindricalTestFunction,
    Iota,
    Shift,
    affine_phi,
    finite_difference_grad,
    identity_phi,
    truncate_cylinder,
)
from precision_helpers import LD, assert_within_terms
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
    (flat.Affine([0.7, 1.3], 0.2), 2),
    (TruncatedAffine(2, [1.0, 0.8]), 2),
    (TruncatedAffine(1, [0.9, 0.4], 0.3), 2),
])
def test_symbolic_gradients_match_finite_differences(node, k, rng):
    r = rng.uniform(0.05, 2.5, size=(10, k))
    grad = node.vag(r)[1]
    fd = finite_difference_grad(node, r)
    assert np.allclose(grad, fd, atol=1e-6)


def test_class_positivity_enforced():
    bad = CylindricalTestFunction(base=affine_phi([-0.5]), anchors=(None,))
    with pytest.raises(ValueError, match="not in class T"):
        bad.base_value_and_grad(np.array([1.0]))
    zero = CylindricalTestFunction(base=affine_phi([0.0]), anchors=(None,))
    with pytest.raises(ValueError, match="not in class T"):
        zero.base_value_and_grad(np.array([1.0]))
    # each flat family is refused when it is built with a weight of 0, -1, -0.5
    # or NaN, and the softmin also with such a scale b
    makers = (flat.Affine, lambda w: TruncatedAffine(1, w), lambda w: _softmin(w=w))
    for bad in (0.0, -1.0, -0.5, np.nan):
        for make in makers:
            for w in ([bad], [0.5, bad]):
                with pytest.raises(ValueError, match="not in class T"):
                    make(w)
        with pytest.raises(ValueError, match="not in class T"):
            _softmin(b=bad)
    for make in makers:
        assert np.array_equal(make([0.5, 1.0]).w, [0.5, 1.0])
    assert flat.Affine([]).bounded()  # no weights: a constant


def _softmin(w=(1.0, 0.5), b=1.0) -> SoftminPsi:
    return SoftminPsi(eps=0.2, m=2.0, b=b, c=0.0, w=np.array(w), log_w=np.zeros(len(w)))


def test_saturated_truncation_is_allowed():
    fun = CylindricalTestFunction(base=Iota(1, affine_phi([1.0])), anchors=(None,))
    v, g = fun.base_value_and_grad(np.array([5.0]))
    assert v == 2.0
    assert g[0] == 0.0
    v, g = TruncatedAffine(1, [1.0]).vag(np.array([5.0]))
    assert v == 2.0
    assert g[0] == 0.0
    # ... but a zero weight is refused when the family is built, even if only
    # saturated rows would be evaluated
    with pytest.raises(ValueError, match="not in class T"):
        TruncatedAffine(1, [1.0, 0.0])
    # the tree wrapper checks rows instead: saturation in one row does not
    # excuse a zero partial in another
    tree = CylindricalTestFunction(base=Iota(1, affine_phi([1.0, 0.0])))
    tree.base_value_and_grad(np.array([[5.0, 0.0]]))
    with pytest.raises(ValueError, match="not in class T"):
        tree.base_value_and_grad(np.array([[5.0, 0.0], [0.5, 0.0]]))


def test_boundedness_flags():
    assert not identity_phi().bounded()
    assert Iota(3, affine_phi([1.0, 1.0])).bounded()
    assert not SumExpNegLog(m=2.0, scale=1.0, log_coeffs=(0.0,),
                            children=(Coord(0),)).bounded()
    assert not flat.Affine([1.0]).bounded()
    assert TruncatedAffine(3, [1.0, 1.0]).bounded()
    assert not SoftminPsi(eps=0.2, m=2.0, b=1.0, c=0.0, w=np.ones(1),
                          log_w=np.zeros(1)).bounded()


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
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be"):
            TruncatedAffine(n, [1.0])


# ---------------------------------------------------------------------------
# the flat families against the tree they replaced
# ---------------------------------------------------------------------------

SHAPES = ((), (4,), (3, 2))
SHAPE_IDS = ("rank1", "rank2", "rank3")
# the affine value is a sum of at most four rounded products
AFFINE_TERMS = 4.0


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_flat_affine_matches_tree_affine_phi(shape):
    """Values and partials bit for bit: the same sum in coordinate order, and
    each one-hot tree partial has one nonzero term.  Weights with a zero or a
    negative entry are refused at construction, where the tree is not in class."""
    rng = np.random.default_rng(701)
    for k in (0, 1, 2, 3):
        signed = rng.uniform(-1.0, 1.0, size=k)
        signed[:1] = 0.0
        for weights in (rng.uniform(0.05, 1.5, size=k), signed):
            const = float(rng.uniform(-0.5, 0.5))
            tree = affine_phi(weights, const)
            r = rng.uniform(0.0, 3.0, size=(*shape, k))
            if not tree.structurally_positive():
                with pytest.raises(ValueError, match="not in class T"):
                    flat.Affine(weights, const)
                continue
            node = flat.Affine(weights, const)
            assert node.bounded() == tree.bounded()
            (v, g), (tv, tg, tsat) = node.vag(r), tree.vag(r)
            for got, want in ((v, tv), (g, tg)):
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
            assert not np.any(tsat)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_truncated_affine_matches_truncate_cylinder(shape):
    """Below the knee: partials bit for bit, values (summed in another order)
    within the composite rule, and no tree flag set; far above it both sit flat
    at n + 1."""
    rng = np.random.default_rng(702)
    for k in (0, 1, 2):
        for n in (1, 3, 8):
            a = float(rng.uniform(0.2, 1.5))
            weights = rng.uniform(0.1, 1.0, size=k)
            const = float(rng.uniform(0.0, 0.5))
            node = TruncatedAffine(n, [a, *weights], const)
            phi0 = CylindricalTestFunction(base=affine_phi(weights, const), anchors=(None,) * k)
            tree = truncate_cylinder(phi0, a, None, n).base
            assert node.bounded() == tree.bounded()
            assert tree.structurally_positive()
            # a r0 + w . r <= 0.99 (n - const): the affine value stays below n
            scale = 0.99 * (n - const) / (a + weights.sum())
            r = scale * rng.uniform(0.0, 1.0, size=(*shape, k + 1))
            (v, g), (tv, tg, tsat) = node.vag(r), tree.vag(r)
            assert np.shape(g) == np.shape(tg) and np.array_equal(g, tg)
            assert np.shape(tsat) == shape and not np.any(tsat)
            w_ld = np.array([a, *weights], dtype=LD)
            ref = LD(const) + np.sum(w_ld * r.astype(LD), axis=-1)
            terms = LD(const) + np.sum(np.abs(w_ld * r.astype(LD)), axis=-1)
            for value in (v, tv):
                assert np.shape(value) == shape
                assert_within_terms(value, ref, terms, AFFINE_TERMS)
            far = r.copy()
            far[..., 0] += (n + 3) / a
            assert np.all(tree.vag(far)[2])
            for fv, fg in (node.vag(far), tree.vag(far)[:2]):
                assert np.all(fv == n + 1) and np.all(fg == 0)
