"""Correctness checks of benchmark outputs, computed apart from the solver.

The discrete operators are rebuilt here from the config (second differences
with ghost-eliminated Neumann ends, column-stacked Kronecker sums) and the
reaction terms from the model equations, so the checks share no numerical
code with the solver path they judge.  Each check returns ``(ok, detail)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MICRON = 1e-6


def laplacian_1d(m: int, h: float, bc) -> sp.csr_matrix:
    """Second-difference matrix; a Neumann end doubles its inner off-diagonal."""
    s = 1.0 / (h * h)
    lower = np.full(m - 1, s)
    upper = np.full(m - 1, s)
    if bc[0] == "neumann":
        upper[0] = 2.0 * s
    if bc[1] == "neumann":
        lower[-1] = 2.0 * s
    return sp.diags([lower, np.full(m, -2.0 * s), upper], [-1, 0, 1], format="csr")


def kron_laplacian(cfg) -> sp.csr_matrix:
    """Laplacian acting on fields flattened in Fortran order (x fastest)."""
    spacing = cfg.raw["grid"].get("spacing_um", 1.0)
    counts, bcs = cfg.grid_spec.counts, cfg.grid_spec.bc
    if np.isscalar(spacing):
        spacing = [spacing] * len(counts)
    total = None
    for axis, (m, h_um, bc) in enumerate(zip(counts, spacing, bcs)):
        term = sp.identity(1, format="csr")
        for j, mj in enumerate(counts):
            factor = laplacian_1d(m, h_um * MICRON, bc) if j == axis else sp.identity(mj)
            term = sp.kron(factor, term, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


def _h(phi):
    return phi * phi * (3.0 - 2.0 * phi)


def reaction_f1(phi, c, p):
    dh = 6.0 * phi * (1.0 - phi)
    dg = 2.0 * phi * (1.0 - phi) * (1.0 - 2.0 * phi)
    drive = c - _h(phi) * (1.0 - p.c_L) - p.c_L
    return 2.0 * p.A * p.L * (1.0 - p.c_L) * drive * dh - p.omega * p.L * dg


def reaction_f2(phi, p):
    return (p.c_L - 1.0) * _h(phi)


def _flat(U):
    return U.ravel(order="F")


def last_step_direct(cfg, theta: np.ndarray, states) -> tuple:
    """Recompute the last step by a sparse direct solve of its converged system.

    The inner fixed-point loop of the `imex-e` variant converges to

        (a I - s dt D (K - N1)) u = base,

    with K the Kronecker-sum Laplacian, N1 = chi_Theta K chi_Omega and the
    known-level correction N2 = K chi_Theta inside `base`.  `states` holds
    the last two (Euler) or three (2SBDF) states of the run.  The solver's
    result must agree on Omega within eps1, the loop's stop tolerance.
    """
    scheme, p = cfg.scheme, cfg.params
    if scheme.variant != "imex-e":
        raise ValueError("the direct check covers the imex-e variant")
    if any("dirichlet" in bc for bc in cfg.grid_spec.bc):
        raise ValueError("the direct check covers Neumann-bounded domains")
    dt, w = scheme.dt, scheme.w
    K = kron_laplacian(cfg)
    th = _flat(theta).astype(float)
    chi = 1.0 - th
    N1 = (sp.diags(th) @ K @ sp.diags(chi)).tocsr()
    N2 = (K @ sp.diags(th)).tocsr()
    eye = sp.identity(K.shape[0], format="csr")
    *history, out = states
    phi_h = [_flat(s.Phi) for s in history]
    c_h = [_flat(s.C) for s in history]
    phi_out, c_out = _flat(out.Phi), _flat(out.C)

    if scheme.order == "euler":
        (phi0,), (c0,) = phi_h, c_h
        s, a_phi, a_c = 1.0, 1.0 + w * dt, 1.0
        base_phi = phi0 + dt * (
            w * chi * phi0 + chi * reaction_f1(phi0, c0, p) - p.D_phi * (N2 @ phi0)
        )
        base_c = c0 - dt * p.D_c * (N2 @ c0)
    else:
        (phi0, phi1), (c0, c1) = phi_h, c_h
        s, a_phi, a_c = 2.0, 3.0 + 2.0 * w * dt, 3.0
        base_phi = (
            4.0 * phi1 - phi0
            + 2.0 * dt * chi * (
                2.0 * reaction_f1(phi1, c1, p) + 2.0 * w * phi1
                - reaction_f1(phi0, c0, p) - w * phi0
            )
            - 2.0 * dt * p.D_phi * (N2 @ (2.0 * phi1 - phi0))
        )
        base_c = 4.0 * c1 - c0 - 2.0 * dt * p.D_c * (N2 @ (2.0 * c1 - c0))
    # The c loop consumes the solver's converged phi.
    f2 = reaction_f2(phi_out, p)
    base_c = base_c + s * dt * p.D_c * ((K - N1 - N2) @ f2)

    phi_direct = spla.spsolve((a_phi * eye - s * dt * p.D_phi * (K - N1)).tocsc(), base_phi)
    c_direct = spla.spsolve((a_c * eye - s * dt * p.D_c * (K - N1)).tocsc(), base_c)
    omega = chi > 0.0
    d_phi = float(np.abs(phi_direct - phi_out)[omega].max())
    d_c = float(np.abs(c_direct - c_out)[omega].max())
    tol = scheme.eps1
    return (
        d_phi <= tol and d_c <= tol,
        f"max|direct - solver| on Omega: phi {d_phi:.2e}, c {d_c:.2e} (<= eps1 {tol:.0e})",
    )


def theta_control(reports, theta: np.ndarray, final, eps2: float, horizon: float) -> tuple:
    """Criterion 05's hole-region control, held at every step.

    max|phi| on Theta stays <= 1e-10 and max|c| on Theta within the
    time-proportional budget eps2 * t / T.  The final state's Theta values
    are recomputed here and must match the last report.
    """
    phi_ok = all(r.max_phi_theta <= 1e-10 for r in reports)
    over = sum(r.max_c_theta > eps2 * r.t / horizon for r in reports)
    final_phi = float(np.abs(final.Phi[theta]).max())
    final_c = float(np.abs(final.C[theta]).max())
    last = reports[-1]
    same = final_phi == last.max_phi_theta and final_c == last.max_c_theta
    return (
        phi_ok and over == 0 and same,
        f"max|phi|_Theta {max(r.max_phi_theta for r in reports):.2e} (<= 1e-10), "
        f"c over eps2*t/T on {over}/{len(reports)} steps, final {final_c:.2e}",
    )


def level_height_spread(C: np.ndarray, y: np.ndarray) -> float:
    """Standard deviation over x of the topmost height where c crosses 0.5 [um]."""
    heights = []
    for column in C:
        d = column - 0.5
        j = np.flatnonzero(d[:-1] * d[1:] < 0.0)[-1]
        frac = d[j] / (d[j] - d[j + 1])
        heights.append(y[j] + frac * (y[j + 1] - y[j]))
    return float(np.std(heights)) / MICRON


def polishing(snapshots, y: np.ndarray) -> tuple:
    """The rough edge smooths: the level-height spread shrinks over the run."""
    first = level_height_spread(snapshots[0][1].C, y)
    last = level_height_spread(snapshots[-1][1].C, y)
    return last < first, f"c=0.5 height spread {first:.3f} -> {last:.3f} um"


def front_law(front_series) -> tuple:
    """Depth grows as sqrt(t): depth^2 against t is a line with R^2 >= 0.95."""
    t, depth = np.array([(t, d) for t, d in front_series if np.isfinite(d)]).T
    slope, intercept = np.polyfit(t, depth**2, 1)
    resid = depth**2 - (slope * t + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((depth**2 - (depth**2).mean()) ** 2).sum())
    return r2 >= 0.95 and slope > 0.0, f"depth^2 vs t: R^2 {r2:.5f} over {t.size} points"


def front_probe(final, cfg) -> float:
    """Depth of the c = 0.5 crossing on the centre line, from the high end."""
    axis = cfg.front_axis
    spacing = cfg.raw["grid"].get("spacing_um", 1.0) * MICRON
    idx = [n // 2 for n in final.C.shape]
    idx[axis] = slice(None)
    d = final.C[tuple(idx)] - 0.5
    j = np.flatnonzero(d[:-1] * d[1:] < 0.0)[0]
    position = (j + d[j] / (d[j] - d[j + 1])) * spacing
    if cfg.grid_spec.bc[axis][0] == "dirichlet":
        position += spacing
    return cfg.grid_spec.extents[axis] - position


def operator_oracle(op, cfg, rng) -> tuple:
    """A solve of a random right-hand side satisfies (a I + b K) x = y."""
    y = rng.standard_normal(op.shape)
    x = op.solve(y)
    K = kron_laplacian(cfg)
    resid = op.a * _flat(x) + op.b * (K @ _flat(x)) - _flat(y)
    rel = float(np.abs(resid).max() / np.abs(y).max())
    return rel <= 1e-9, f"max residual / max|y| = {rel:.1e} (<= 1e-9)"
