"""One analysis context per graph.

The predicates of the paper share a few exact per-graph quantities: the
edge-curvature table, the Bonnet-Myers verdict built on it, the antipole
lists, the mu-graph scan and the spectrum.  :class:`GraphAnalysis` holds a
graph and computes each of those at most once, on first use; the
predicates that need them take the context instead of the graph.  The
distance oracle is not among them: the graph caches its own.  A context
exists only for a connected regular graph of degree D >= 1, the hypothesis
of every verdict in the paper: the constructor raises Disconnected,
NotRegular or NoEdges otherwise, so no predicate that takes a context
checks any of them.  A context lives as
long as its caller keeps it, so nothing is shared between graphs or
commands.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import Graph, poles_and_antipoles, require_connected, require_regular
from .sharpness import MuGraphVerdict, SharpnessVerdict, bm_sharpness, mu_graphs_all_cp
from .spectral import SpectralSummary, spectral_summary
from .transport import CurvatureValue, kappas


class GraphAnalysis:
    """A connected regular graph, its degree ``deg`` >= 1 and the shared
    quantities derived from it."""

    def __init__(self, g: Graph) -> None:
        require_connected(g)
        self.deg = require_regular(g)
        self.g = g

    @cached_property
    def edge_kappas(self) -> dict[tuple[int, int], CurvatureValue]:
        """``kappa`` of every edge, keyed ``(u, v)`` with ``u < v`` in ``g.edges()`` order."""
        return kappas(self.g, self.g.edges())

    @cached_property
    def bm(self) -> SharpnessVerdict:
        return bm_sharpness(self)

    @cached_property
    def poles_and_antipoles(self) -> tuple[tuple[tuple[int, ...], ...], bool]:
        return poles_and_antipoles(self.g)

    @cached_property
    def mu_graphs(self) -> MuGraphVerdict:
        return mu_graphs_all_cp(self.g)

    @cached_property
    def spectrum(self) -> SpectralSummary:
        return spectral_summary(self.g)
