"""Physical model: parameters and reaction terms.

The model couples an Allen-Cahn equation for the phase field phi (1 in solid
metal, 0 in electrolyte) with a Cahn-Hilliard-type equation for the normalized
corrosion level c:

    phi_t = D_phi * Lap(phi) + F1(phi, c)
    c_t   = D_c * Lap(c + F2(phi))

with

    F1(phi, c) = 2*A*L*(1 - c_L) * [c - h(phi)*(1 - c_L) - c_L] * h'(phi)
                 - omega*L * g'(phi)
    F2(phi)    = (c_L - 1) * h(phi)

where h(phi) = -2*phi^3 + 3*phi^2 interpolates between the phases and
g(phi) = phi^2 * (1 - phi)^2 is the double well; the reactions read only h,
h' and g', and evaluate them inline.  Both reactions of one phi share h:
`reaction_f2` can return the h it forms, and `reaction_f1` can read it
instead of forming it again, with the same bits.  All functions are applied
entrywise on grid fields; phi is deliberately not clamped to [0, 1], the
polynomials remain well defined for transient overshoots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CorrosionParameters",
    "reaction_f1",
    "reaction_f2",
]

# Relaxation shift used throughout the reference experiments with the default
# physical parameters.
DEFAULT_FIXED_W = 4.43e8


@dataclass(frozen=True)
class CorrosionParameters:
    """Physical constants of the corrosion model (SI units).

    L      interface kinetics coefficient [m^3/(J*s)]
    A      free energy curvature [J/mol]
    D_phi  phase diffusion coefficient [m^2/s]
    D_c    concentration diffusion coefficient [m^2/s]
    c_L    normalized liquid equilibrium concentration [-]
    omega  double-well height [J/m^3]
    """

    L: float = 2.0
    A: float = 5.35e7
    D_phi: float = 6.02e-6
    D_c: float = 8.5e-10
    c_L: float = 3.57e-2
    omega: float = 2.08e6

    def __post_init__(self):
        for name in ("L", "A", "D_phi", "D_c", "c_L", "omega"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"parameter {name} must be positive and finite")
        if not 0.0 < self.c_L < 1.0:
            raise ValueError("c_L must lie in (0, 1)")


def reaction_f1(phi, c, p: CorrosionParameters, h=None):
    """Reaction term of the phi equation, applied entrywise.

    It evaluates

        2*A*L*(1 - c_L) * (c - h(phi)*(1 - c_L) - c_L) * h'(phi)
            - omega*L * g'(phi)

    with h(phi) = (phi*phi)*(3 - 2*phi), h'(phi) = (6*phi)*(1 - phi) and
    g'(phi) = ((2*phi)*(1 - phi))*(1 - 2*phi), each product rounded in that
    order, in place on three arrays of the broadcast shape: the result, the
    factor being built, and 1 - phi.  `h`, if given, is h(phi) as
    `reaction_f2(phi, p, with_h=True)` returns it; it is read, not written,
    and the result has the bits of the evaluation without it.
    """
    phi, c = np.asarray(phi), np.asarray(c)
    if phi.dtype == c.dtype == np.float64 and phi.shape == c.shape:  # two fields
        shape, dtype = phi.shape, phi.dtype
    else:
        shape, dtype = np.broadcast_shapes(phi.shape, c.shape), np.result_type(phi, c, 1.0)
    f, a, one_minus = np.empty(shape, dtype), np.empty(shape, dtype), np.empty(shape, dtype)
    if h is None:
        np.multiply(phi, phi, out=f)
        np.multiply(2.0, phi, out=a)
        np.subtract(3.0, a, out=a)
        np.multiply(f, a, out=f)  # h(phi)
        np.multiply(f, 1.0 - p.c_L, out=f)
    else:
        np.multiply(h, 1.0 - p.c_L, out=f)
    np.subtract(c, f, out=f)
    np.subtract(f, p.c_L, out=f)  # the drive
    np.multiply(2.0 * p.A * p.L * (1.0 - p.c_L), f, out=f)
    np.subtract(1.0, phi, out=one_minus)
    np.multiply(6.0, phi, out=a)
    np.multiply(a, one_minus, out=a)  # h'(phi)
    np.multiply(f, a, out=f)
    np.multiply(2.0, phi, out=a)
    np.multiply(a, one_minus, out=one_minus)  # (2*phi)*(1 - phi)
    np.subtract(1.0, a, out=a)
    np.multiply(one_minus, a, out=a)  # g'(phi)
    np.multiply(p.omega * p.L, a, out=a)
    return np.subtract(f, a, out=f)


def reaction_f2(phi, p: CorrosionParameters, *, with_h=False):
    """Nonlinear flux contribution of the c equation, applied entrywise.

    It evaluates (c_L - 1) * h(phi), with h(phi) = (phi*phi)*(3 - 2*phi)
    rounded in that order, in place on two arrays of phi's shape: the result
    and the factor 3 - 2*phi.  With `with_h` it returns (F2, h(phi)), two
    arrays, so that a step can hand h on to `reaction_f1` of the same level.
    """
    phi = np.asarray(phi)
    dtype = phi.dtype if phi.dtype == np.float64 else np.result_type(phi, 1.0)
    h, a = np.empty(phi.shape, dtype), np.empty(phi.shape, dtype)
    np.multiply(phi, phi, out=h)
    np.multiply(2.0, phi, out=a)
    np.subtract(3.0, a, out=a)
    np.multiply(h, a, out=h)
    f2 = np.multiply(p.c_L - 1.0, h, out=a)
    return (f2, h) if with_h else f2
