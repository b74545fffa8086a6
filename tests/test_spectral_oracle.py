"""Crank-Nicolson runs against the discrete spectral propagator.

For a static potential the interior Hamiltonian H is one real symmetric
tridiagonal matrix. A Crank-Nicolson step of length h at clock rate T'
multiplies the state's component along each eigenvector of H, eigenvalue w,
by the Cayley factor (1 - i lam T' w) / (1 + i lam T' w), lam = h / (2 hbar)
(Goldberg, Schey and Schwartz, Am. J. Phys. 35, 177 (1967)). The oracle
takes w and the eigenvectors from ``scipy.linalg.eigh_tridiagonal`` and
builds H, the step edges and the rates itself, so it shares no code with the
kernel: no stencil, no tridiagonal solve and no step schedule. The two agree
to about 1e-13 on every clock here (identity, sine, linear alpha 2 and 1/2,
and a smooth ramp), so a fault of 1e-9 in H, common to both clocks, shows.
"""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from reclock.model import (
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    PhysicalConstants,
    SinePerturbedMap,
    SmoothRampMap,
    SpatialGrid,
    prepare_gaussian,
)
from reclock.quantum import PropagatorConfig, propagate_t, propagate_tau

CST = PhysicalConstants()
GRID = SpatialGrid(-12.0, 12.0, 256)
PSI0 = prepare_gaussian(GRID, 1.0, 1.0, momentum=0.5)
SPAN = (0.0, 1.0)
CFG = PropagatorConfig(dt=1e-3, record_every=50)
BOUND = 1e-11

CLOCKS = {
    "identity": IdentityMap(domain=SPAN),
    "sine": SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=SPAN),
    "linear-2": LinearMap(alpha=2.0, domain=SPAN),
    "linear-half": LinearMap(alpha=0.5, domain=SPAN),
    "ramp": SmoothRampMap(rate_start=0.5, rate_end=2.0, center=0.5, sharpness=0.1, domain=SPAN),
}


def _spectral_rows(rate):
    """The interior of every recorded state, stepped in H's eigenbasis with
    the clock rate ``rate(mid)`` at each step midpoint; and the record clocks."""
    x = GRID.x_min + GRID.dx * np.arange(GRID.n_points)
    kin = CST.hbar**2 / (2.0 * CST.mass * GRID.dx**2)
    well = 0.5 * CST.mass * x[1:-1] ** 2
    w, vectors = eigh_tridiagonal(2.0 * kin + well, np.full(GRID.n_points - 3, -kin))
    coeffs = vectors.T @ PSI0.amplitudes[1:-1]

    n = round((SPAN[1] - SPAN[0]) / CFG.dt)
    edges = SPAN[0] + CFG.dt * np.arange(n + 1)
    rows = [coeffs]
    for k in range(n):
        step = edges[k + 1] - edges[k]
        z = 1j * step / (2.0 * CST.hbar) * rate(edges[k] + 0.5 * step) * w
        coeffs = coeffs * (1.0 - z) / (1.0 + z)
        if (k + 1) % CFG.record_every == 0:
            rows.append(coeffs)
    return edges[:: CFG.record_every], np.array(rows) @ vectors.T


@pytest.mark.parametrize("clock", ["conventional", *CLOCKS])
def test_crank_nicolson_matches_the_spectral_propagator(clock):
    pot = HarmonicPotential()
    if clock == "conventional":
        record = propagate_t(PSI0, pot, CST, SPAN, CFG)
        clocks, rows = _spectral_rows(lambda mid: 1.0)
    else:
        tmap = CLOCKS[clock]
        record = propagate_tau(PSI0, pot, CST, tmap, SPAN, CFG)
        clocks, rows = _spectral_rows(lambda mid: float(tmap.rate(mid)))
    assert len(record.clocks) == len(clocks) == 21
    assert np.max(np.abs(record.clocks - clocks)) < 1e-12
    assert np.all(record.amplitudes[:, [0, -1]] == 0.0)
    gap = float(np.max(np.abs(record.amplitudes[:, 1:-1] - rows)))
    assert gap < BOUND
