"""The zero-flux operators written plainly with ``np.diff``: a test oracle.

Each axis's face flux lives on the faces between neighbours along that axis;
zero walls are padded on, the divergence is scaled by 1/h^2, and the axes are
summed in order. This is the arithmetic of ``arcsim.grid.laplacian_values``,
``arcsim.grid.div_u_grad_values`` and the explicit step's fused u flux, so
their results compare bitwise with these.
"""

import numpy as np


def divergence(fluxes, spacing):
    """Sum over the axes of the divergence of each axis's interior face flux (h times
    the flux), the boundary faces carrying zero."""
    total = None
    for axis, (flux, h) in enumerate(zip(fluxes, spacing)):
        walls = [(0, 0)] * flux.ndim
        walls[axis] = (1, 1)
        div = np.diff(np.pad(flux, walls), axis=axis) * (1.0 / (h * h))
        total = div if total is None else total + div
    return total


def taxis_flux(u, phi, axis, scheme):
    """u_face * (phi_hi - phi_lo) on the interior faces of ``axis``: u_face is the mean
    of the two cells ("central") or the donor cell of velocity +grad(phi) ("upwind")."""
    lo = u[(slice(None),) * axis + (slice(None, -1),)]
    hi = u[(slice(None),) * axis + (slice(1, None),)]
    dphi = np.diff(phi, axis=axis)
    face = (lo + hi) * 0.5 if scheme == "central" else np.where(dphi >= 0.0, lo, hi)
    return face * dphi


def laplacian(v, spacing):
    return divergence([np.diff(v, axis=axis) for axis in range(v.ndim)], spacing)


def div_u_grad(u, phi, spacing, scheme):
    return divergence([taxis_flux(u, phi, axis, scheme) for axis in range(u.ndim)], spacing)


def drift_diffusion(u, phi, spacing, scheme):
    """Lap(u) - div(u_face grad(phi)) from the one face flux grad(u) - u_face grad(phi):
    the explicit step's u bracket."""
    fluxes = [np.diff(u, axis=axis) - taxis_flux(u, phi, axis, scheme) for axis in range(u.ndim)]
    return divergence(fluxes, spacing)
