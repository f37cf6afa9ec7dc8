"""Physical model: parameters, interpolation/double-well polynomials and reaction terms.

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
g(phi) = phi^2 * (1 - phi)^2 is the double well.  All functions are applied
entrywise on grid fields; phi is deliberately not clamped to [0, 1], the
polynomials remain well defined for transient overshoots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CorrosionParameters",
    "eval_h_family",
    "eval_g_family",
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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"parameter {name} must be strictly positive")
        if not 0.0 < self.c_L < 1.0:
            raise ValueError("c_L must lie in (0, 1)")


def eval_h_family(phi):
    """Return (h, h', h'') of the interpolant h(phi) = -2*phi^3 + 3*phi^2."""
    phi = np.asarray(phi)
    h = phi * phi * (3.0 - 2.0 * phi)
    dh = 6.0 * phi * (1.0 - phi)
    d2h = 6.0 - 12.0 * phi
    return h, dh, d2h


def eval_g_family(phi):
    """Return (g, g', g'') of the double well g(phi) = phi^2 * (1 - phi)^2."""
    phi = np.asarray(phi)
    one_m = 1.0 - phi
    g = phi * phi * one_m * one_m
    dg = 2.0 * phi * one_m * (1.0 - 2.0 * phi)
    d2g = (12.0 * phi - 12.0) * phi + 2.0
    return g, dg, d2g


def reaction_f1(phi, c, p: CorrosionParameters):
    """Reaction term of the phi equation, applied entrywise."""
    h, dh, _ = eval_h_family(phi)
    _, dg, _ = eval_g_family(phi)
    drive = np.asarray(c) - h * (1.0 - p.c_L) - p.c_L
    return 2.0 * p.A * p.L * (1.0 - p.c_L) * drive * dh - p.omega * p.L * dg


def reaction_f2(phi, p: CorrosionParameters):
    """Nonlinear flux contribution of the c equation, applied entrywise."""
    h, _, _ = eval_h_family(phi)
    return (p.c_L - 1.0) * h
