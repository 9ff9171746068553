"""Test-only comparison rules against extended precision, and long double
forms of the row kernels and of psi_eps to build the references with.

Where the arithmetic of the package changed, a test compares the old code path
(kept in the tests) and the new one with a reference, by one of two rules:

* ``assert_kernel_no_worse(new, old, ref)`` for a kernel, one short rounded
  expression such as d^2, r = d^2/2, T_cap, the psi constants or a squared
  slope: on every case the new error is at most the old error plus half an
  ulp of the reference.
* ``assert_within_terms(value, ref, terms, c)`` for a composite, a sum of many
  rounded terms such as f or g of a pair: |value - ref| <= c eps terms, with
  ``terms`` the sum of the terms' magnitudes.  Cancellation moves the error of
  a composite both ways by hundreds of ulps of its value, so no per-case ulp
  rule between two composites holds; this bound does, for old and new alike.

References are ``np.longdouble``, which must carry more bits than a double (64
bits of mantissa on x86-64 Linux).

``pow_free`` keeps libm pow out of a call: it hands out ``NoPow`` arrays, whose
ufuncs refuse ``power`` and ``float_power`` however they are spelled, and
makes ``np.power``, ``np.float_power`` refuse and ``np.asarray`` keep ``NoPow``,
so the rows a package function checks stay guarded inside it.
"""

from __future__ import annotations

import numpy as np

from hjflow.tataru import _psi

LD = np.longdouble
EPS = np.finfo(float).eps
assert np.finfo(LD).eps < EPS / 1000, "the references need an extended long double"


def ulp(ref) -> np.ndarray:
    """The spacing of doubles at ref, in long double."""
    return np.spacing(np.abs(np.asarray(ref, dtype=float))).astype(LD)


def assert_kernel_no_worse(new, old, ref) -> None:
    """Kernel rule: |new - ref| <= |old - ref| + ulp(ref)/2 on every case."""
    new, old, ref = (np.asarray(v, dtype=LD) for v in (new, old, ref))
    excess = (np.abs(new - ref) - np.abs(old - ref)) / ulp(ref)
    assert np.all(excess <= 0.5), f"new error exceeds old by {float(np.max(excess)):.3g} ulp"


def assert_within_terms(value, ref, terms, c: float) -> None:
    """Composite rule: |value - ref| <= c eps terms on every case."""
    err = np.abs(np.asarray(value, dtype=LD) - ref)
    bound = c * EPS * np.asarray(terms, dtype=LD)
    assert np.all(err <= bound), f"error {float(np.max(err - bound)):.3g} above c eps terms"


# psi_eps's quadratic branch is a three-term sum; the tests read at most 1.3
PSI_TERMS = 2.0


def assert_t_cap(new, old, sq, eps) -> None:
    """T_cap = psi_eps(d^2/2) + 1 of the double d^2 ``sq`` against long double:
    the kernel rule where psi_eps is sqrt(2 r), the composite rule with the
    terms of its quadratic branch at r <= eps."""
    r = np.asarray(sq, dtype=LD) / 2
    e, root, cube = psi_consts(eps)
    ref = psi(eps, r)[0] + 1
    high = r > e
    new, old = np.asarray(new), np.asarray(old)
    assert_kernel_no_worse(new[high], old[high], ref[high])
    terms = root + np.abs(r - e) / root + np.square(r - e) / (2 * cube) + 1
    for value in (new, old):
        assert_within_terms(value[~high], ref[~high], terms[~high], PSI_TERMS)


def old_psi_consts(eps: float) -> tuple:
    """The former psi constants of one eps: the cube as the pow of the rounded root."""
    root = np.sqrt(2.0 * eps)
    return eps, root, root**3


def old_t_cap(space, pis, mus, consts):
    """The former ``tataru._t_cap``: d^2 squared back from the distance by libm pow."""
    d = np.sqrt(space.sq_dist(pis, mus))
    if consts is not None:
        d = _psi(consts, 0.5 * np.float_power(d, 2), prime=False)[0]
    return d + 1.0


def sq_dist(space, a, b) -> np.ndarray:
    """d^2 of ``ModelSpace.sq_dist`` in long double, from the double rows a and b."""
    diffs = np.asarray(a, dtype=LD) - np.asarray(b, dtype=LD)
    return LD(space.weight) * np.sum(diffs * diffs, axis=-1)


def energies(space, vals) -> tuple[np.ndarray, np.ndarray]:
    """(E, sum of the magnitudes of its terms) in long double for the double rows vals."""
    x = np.asarray(vals, dtype=LD)
    pot = space.potential
    v = pot.v(x)
    if pot.form == "double_well":  # x^4/4 + kappa x^2/2, of both signs
        v_abs = np.square(x) * (LD(0.25) * np.square(x) + LD(0.5) * abs(LD(pot.kappa)))
    else:
        v_abs = np.abs(v)
    return LD(space.weight) * np.sum(v, axis=-1), LD(space.weight) * np.sum(v_abs, axis=-1)


def psi_consts(eps) -> tuple:
    """(eps, sqrt(2 eps), (2 eps)^{3/2}) in long double for the double eps."""
    two_eps = 2 * np.asarray(eps, dtype=LD)
    root = np.sqrt(two_eps)
    return two_eps / 2, root, two_eps * root


def psi(eps, r) -> tuple[np.ndarray, np.ndarray]:
    """(psi_eps(r), psi_eps'(r)) in long double."""
    e, root, cube = psi_consts(eps)
    r = np.asarray(r, dtype=LD)
    high = np.sqrt(2 * np.maximum(r, e))
    low = r <= e
    value = np.where(low, root + (r - e) / root - np.square(r - e) / (2 * cube), high)
    return value, np.where(low, 1 / root - (r - e) / cube, 1 / high)


POW_UFUNCS = (np.power, np.float_power)


class NoPow(np.ndarray):
    """Array whose ufuncs refuse power and float_power; their array results stay NoPow."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc not in POW_UFUNCS, f"{ufunc.__name__} called"
        plain = [a.view(np.ndarray) if isinstance(a, NoPow) else a for a in inputs]
        outs = kwargs.get("out")
        if outs is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, NoPow) else o
                                  for o in outs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if outs is not None:
            return outs[0] if len(outs) == 1 else outs
        return result.view(NoPow) if isinstance(result, np.ndarray) else result


def pow_free(monkeypatch, *arrays):
    """The arrays as NoPow views, with np.power and np.float_power refusing and
    np.asarray keeping NoPow until the monkeypatch is undone."""
    def refuse(*args, **kwargs):
        raise AssertionError("libm pow called")

    asarray = np.asarray

    def keep(a, *args, **kwargs):
        out = asarray(a, *args, **kwargs)
        return out.view(NoPow) if isinstance(a, NoPow) else out

    monkeypatch.setattr(np, "power", refuse)
    monkeypatch.setattr(np, "float_power", refuse)
    monkeypatch.setattr(np, "asarray", keep)
    views = tuple(asarray(a, dtype=float).view(NoPow) for a in arrays)
    return views[0] if len(views) == 1 else views
