"""Normalized-Laplacian and adjacency spectra, Lichnerowicz sharpness, and
exact eigenfunction verification.

Eigenvalues come from dense symmetric solves (graphs here stay well under a
couple of thousand vertices); value comparisons use a 1e-9 tolerance and
multiplicity clustering a 1e-7 radius.  The distance eigenfunction identity
is checked exactly, in integer degree counts, with no Laplacian applied: the
exact normalized Laplacian in Fractions is a test oracle
(``tests/helpers.py``), which checks that identity a second way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import IsolatedVertex
from .graphs import Graph, degree_triple, distances, require_connected, require_edges

if TYPE_CHECKING:
    from .analysis import GraphAnalysis

VALUE_TOL = 1e-9
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class SpectralSummary:
    """Key spectral data of a connected graph with an edge, so n >= 2."""

    lambda1: float
    lambda1_multiplicity: int
    theta1: float
    laplacian_spectrum: tuple[float, ...]
    adjacency_spectrum: tuple[float, ...]


def adjacency_spectrum(g: Graph) -> np.ndarray:
    """Adjacency eigenvalues in descending order."""
    return np.linalg.eigvalsh(g.dense_adjacency)[::-1]


def laplacian_spectrum(g: Graph) -> np.ndarray:
    """Eigenvalues of -Delta (so they lie in [0, 2]), ascending.

    Uses the symmetric normalization D^{-1/2} A D^{-1/2}, which is similar
    to D^{-1} A for graphs without isolated vertices.
    """
    degs = np.array(g.degrees, dtype=np.float64)
    if (degs == 0).any():
        raise IsolatedVertex("laplacian spectrum needs minimum degree 1")
    scale = 1.0 / np.sqrt(degs)
    sym = scale[:, None] * g.dense_adjacency * scale[None, :]
    eigs = np.linalg.eigvalsh(sym)
    return np.sort(1.0 - eigs)


def spectral_summary(g: Graph) -> SpectralSummary:
    """Smallest positive Laplace eigenvalue, its multiplicity, and theta1.

    K0 is not connected and K1's vertex is isolated, so both are refused.
    """
    require_connected(g)
    lap = laplacian_spectrum(g)
    lam1 = float(lap[lap > VALUE_TOL][0])
    mult = int(np.sum(np.abs(lap - lam1) < CLUSTER_TOL))
    adj = adjacency_spectrum(g)
    return SpectralSummary(
        lambda1=lam1,
        lambda1_multiplicity=mult,
        theta1=float(adj[1]),
        laplacian_spectrum=tuple(float(v) for v in lap),
        adjacency_spectrum=tuple(float(v) for v in adj),
    )


def verify_distance_eigenfunction(g: Graph, x: int) -> tuple[bool, Optional[int]]:
    """Exact check that f = d(x, .) - L/2 satisfies Delta f + (2/L) f = 0.

    Every neighbour of v is one step nearer to x, level with v or one step
    farther, so L deg(v) times the left side at v is L (d_plus - d_minus)
    - deg(v) (L - 2 d(x, v)), an integer, read off ``degree_triple``.
    Returns (True, None) on success, else (False, first violating vertex).
    K1, whose L = 0 leaves 2/L undefined, is refused with NoEdges.
    """
    require_connected(g)
    require_edges(g)
    d = distances(g)
    L = d.diameter
    for v in range(g.n):
        t = degree_triple(g, x, v)
        if L * (t.d_plus - t.d_minus) != g.degree(v) * (L - 2 * d.d(x, v)):
            return False, v
    return True, None


@dataclass(frozen=True)
class LichnerowiczVerdict:
    is_sharp: bool
    inf_edge_kappa: Fraction
    lambda1: float
    exact_certificate: bool
    witness_pole: Optional[int]


def is_lichnerowicz_sharp(ctx: GraphAnalysis) -> LichnerowiczVerdict:
    """Compare the exact edge-curvature infimum with the float lambda1.

    The float comparison (1e-9) always runs.  On a Bonnet-Myers sharp graph
    that it finds sharp, the first pole (the first vertex with an antipole)
    is checked for an exact certificate: f = d(pole, .) - L/2 is an
    eigenfunction for 2/L.  A certificate proves sharpness exactly, because
    lambda1 >= inf kappa and the certified eigenvalue 2/L equals inf kappa:
    the paper's "Bonnet-Myers sharp implies Lichnerowicz sharp".  The float
    comparison still decides graphs without a certificate.
    """
    inf_edge_kappa = ctx.bm.inf_edge_kappa
    summ = ctx.spectrum
    sharp = abs(float(inf_edge_kappa) - summ.lambda1) < VALUE_TOL
    certificate, witness = False, None
    if sharp and ctx.bm.is_bm_sharp:
        per_vertex, _ = ctx.poles_and_antipoles
        pole = next(x for x, antipoles in enumerate(per_vertex) if antipoles)
        certificate, _ = verify_distance_eigenfunction(ctx.g, pole)
        witness = pole if certificate else None
    return LichnerowiczVerdict(
        is_sharp=sharp,
        inf_edge_kappa=inf_edge_kappa,
        lambda1=summ.lambda1,
        exact_certificate=certificate,
        witness_pole=witness,
    )
