"""Normalized-Laplacian and adjacency spectra, Lichnerowicz sharpness, and
exact eigenfunction verification.

Eigenvalues come from dense symmetric solves (graphs here stay well under a
couple of thousand vertices); value comparisons use a 1e-9 tolerance and
multiplicity clustering a 1e-7 radius.  The distance eigenfunction identity
is checked in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Optional

import numpy as np

from .errors import IsolatedVertex
from .graphs import Graph, distances, require_connected

if TYPE_CHECKING:
    from .analysis import GraphAnalysis

VALUE_TOL = 1e-9
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class SpectralSummary:
    """Key spectral data of a connected graph."""

    lambda1: float
    lambda1_multiplicity: int
    theta1: Optional[float]
    laplacian_spectrum: tuple[float, ...]
    adjacency_spectrum: tuple[float, ...]


def normalized_laplacian_apply(
    g: Graph, f: Mapping[int, Fraction] | Callable[[int], Fraction]
) -> dict[int, Fraction]:
    """Exact image of f under the normalized Laplacian Delta f(x) =
    (1/d_x) sum_{y ~ x} (f(y) - f(x))."""
    get = f.__getitem__ if hasattr(f, "__getitem__") else f
    out: dict[int, Fraction] = {}
    for x in range(g.n):
        deg = g.degree(x)
        if deg == 0:
            raise IsolatedVertex(f"vertex {x} is isolated")
        fx = Fraction(get(x))
        acc = Fraction(0)
        for y in g.adjacency[x]:
            acc += Fraction(get(y)) - fx
        out[x] = acc / deg
    return out


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
    """Smallest positive Laplace eigenvalue, its multiplicity, and theta1."""
    require_connected(g)
    lap = laplacian_spectrum(g)
    lam1 = float(lap[lap > VALUE_TOL][0])
    mult = int(np.sum(np.abs(lap - lam1) < CLUSTER_TOL))
    adj = adjacency_spectrum(g)
    theta1 = float(adj[1]) if g.n >= 2 else None
    return SpectralSummary(
        lambda1=lam1,
        lambda1_multiplicity=mult,
        theta1=theta1,
        laplacian_spectrum=tuple(float(v) for v in lap),
        adjacency_spectrum=tuple(float(v) for v in adj),
    )


def verify_distance_eigenfunction(g: Graph, x: int) -> tuple[bool, Optional[int]]:
    """Exact check that f = d(x, .) - L/2 satisfies Delta f + (2/L) f = 0.

    Returns (True, None) on success, else (False, first violating vertex).
    """
    d = distances(g)
    L = d.diameter
    if L == 0:
        return True, None
    f = {v: Fraction(d.d(x, v)) - Fraction(L, 2) for v in range(g.n)}
    image = normalized_laplacian_apply(g, f)
    lam = Fraction(2, L)
    for v in range(g.n):
        if image[v] + lam * f[v] != 0:
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

    The float comparison (1e-9) always runs; when f = d(pole, .) - L/2 is an
    exact eigenfunction for 2/L and the infimum equals 2/L, the verdict also
    carries an exact certificate (minimality of lambda1 still rests on the
    float spectrum).
    """
    g = ctx.g
    d = distances(g)
    inf_edge_kappa = ctx.bm.inf_edge_kappa
    summ = ctx.spectrum
    sharp = abs(float(inf_edge_kappa) - summ.lambda1) < VALUE_TOL
    certificate = False
    witness = None
    if sharp and ctx.bm.is_bm_sharp:
        for x in range(g.n):
            if d.eccentricity(x) == d.diameter:
                ok, _ = verify_distance_eigenfunction(g, x)
                if ok:
                    certificate = True
                    witness = x
                break
    return LichnerowiczVerdict(
        is_sharp=sharp,
        inf_edge_kappa=inf_edge_kappa,
        lambda1=summ.lambda1,
        exact_certificate=certificate,
        witness_pole=witness,
    )
