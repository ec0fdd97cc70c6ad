"""Exact transport: Wasserstein distances, curvature flavours, duality
certificates, triangle-and-matching maps, transport geodesics."""

import inspect
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import numpy as np
import pytest

from curvlab import _kernels, transport
from curvlab.analysis import GraphAnalysis
from curvlab.errors import (
    BadIdleness,
    BadMeasure,
    Disconnected,
    MuGraphNotCP,
    NoAntipole,
    NotFullLength,
    NotPerfectMatching,
    NotRegular,
    PreconditionUnmet,
    SamePair,
    SolverFailed,
    UnbalancedTransport,
    VerificationError,
    VertexOutOfRange,
)
from curvlab.families import (
    cocktail_party,
    complete,
    hypercube,
    johnson,
)
from curvlab.fixtures import load_fixture
from curvlab.graphs import build_graph, cartesian_product, common_neighbors, distances, interval
from curvlab.transport import (
    _kappa_p_plan,
    _kappa_plan,
    CurvatureValue,
    Measure,
    TransportMap,
    TransportPlan,
    geodesic_between,
    idle_measure,
    interval_antipole,
    kappa,
    kappa_p,
    kappas,
    matching_sides,
    switching_map,
    tpm_transport_map,
    transport_geodesic,
    unique_perfect_matching,
    unique_tpm_transport_map,
    wasserstein,
)

from helpers import (
    SAMPLE_GRAPHS,
    NotLipschitz,
    adjacency_bijections,
    certify_duality,
    edge_has_perfect_matching,
    hungarian_scalar,
    kappas_by_sets,
    random_regular_graph,
    record_calls,
    sample_graph,
    transportation_by_sides,
    unique_perfect_matching_by_vertices,
    wasserstein_bruteforce,
    wasserstein_full_flow,
)


POINT = {v: Measure.from_dict({v: Fraction(1)}) for v in range(3)}


class TestMeasures:
    def test_idle_measure_quarter(self, q3):
        g, _ = q3
        m = idle_measure(g, 0, Fraction(1, 4))
        assert m(0) == Fraction(1, 4)
        assert all(m(y) == Fraction(1, 4) for y in g.adjacency[0])

    def test_point_mass(self, q3):
        g, _ = q3
        m = idle_measure(g, 0, 1)
        assert m.support == (0,)

    def test_zero_idleness(self):
        g = complete(3)
        m = idle_measure(g, 0, 0)
        assert m(1) == m(2) == Fraction(1, 2)

    def test_bad_idleness(self, q3):
        g, _ = q3
        with pytest.raises(BadIdleness):
            idle_measure(g, 0, Fraction(3, 2))
        with pytest.raises(BadIdleness):
            idle_measure(g, 0, 0.25)

    @pytest.mark.parametrize(
        "make,error",
        [
            (lambda: Measure.from_dict({0: Fraction(3, 2), 1: Fraction(-1, 2)}), BadMeasure),
            (lambda: Measure.from_dict({0: Fraction(1, 2)}), BadMeasure),
            (lambda: TransportPlan(((0, 1, Fraction(0)),), POINT[0], POINT[1]), BadMeasure),
            (lambda: TransportPlan(((0, 1, Fraction(1)),), POINT[0], POINT[2]), BadMeasure),
            (lambda: TransportPlan(((0, 1, Fraction(1)),), POINT[2], POINT[1]), BadMeasure),
            (lambda: TransportMap(0, 1, ((0, 1), (1, 0)), Fraction(0)).apply(2), PreconditionUnmet),
        ],
        ids=["negative-mass", "mass-below-1", "zero-entry", "column-marginal", "row-marginal",
             "map-outside-domain"],
    )
    def test_malformed_transport_data_raises_typed_errors(self, make, error):
        # a typed CurvlabError, not a bare ValueError or KeyError
        with pytest.raises(error):
            make()

    def test_isolated_vertex_needs_full_idleness(self):
        g = build_graph(2, [])
        assert idle_measure(g, 0, 1).support == (0,)
        with pytest.raises(BadIdleness):
            idle_measure(g, 0, Fraction(1, 2))

    def test_disconnected_rejected(self):
        from curvlab.errors import Disconnected

        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(Disconnected):
            kappa(g, 0, 1)


class TestWasserstein:
    def test_identical_measures(self, q3):
        g, _ = q3
        m = idle_measure(g, 0, Fraction(1, 4))
        w, plan = wasserstein(g, m, m)
        assert w == 0 and plan.cost(g) == 0

    def test_q3_neighbours(self, q3):
        g, _ = q3
        w, plan = wasserstein(
            g, idle_measure(g, 0, Fraction(1, 4)), idle_measure(g, 1, Fraction(1, 4))
        )
        assert w == Fraction(1, 2)
        assert plan.cost(g) == w

    def test_cp3_neighbours(self, cp3):
        g, _ = cp3
        y = g.adjacency[0][0]
        w, _ = wasserstein(
            g, idle_measure(g, 0, Fraction(1, 5)), idle_measure(g, y, Fraction(1, 5))
        )
        assert w == Fraction(1, 5)

    def test_assignment_matches_bruteforce(self, petersen):
        g, d = petersen
        p = Fraction(1, 4)
        for x, y in [(0, 1), (0, 5), (2, 7)]:
            m1, m2 = idle_measure(g, x, p), idle_measure(g, y, p)
            w, _ = wasserstein(g, m1, m2)
            assert w == wasserstein_bruteforce(d, m1, m2)

    def test_flow_path_matches_assignment(self, q3):
        # p = 1/4 gives equal masses on Q3, so both routes must agree;
        # force the flow route by perturbing nothing but the solver choice,
        # on the full supports
        from curvlab.transport import _assignment, _wasserstein_flow

        g, _ = q3
        unit = Fraction(1, 4)
        for x, y in [(0, 1), (0, 3), (0, 7), (2, 5)]:
            m1 = idle_measure(g, x, unit)
            m2 = idle_measure(g, y, unit)
            total, pairs = _assignment(g, m1.support, m2.support)
            wa, entries_a = unit * total, [(u, v, unit) for u, v in pairs]
            wf, entries_f = _wasserstein_flow(g, m1.mass, m2.mass)
            plan_a = TransportPlan(tuple(entries_a), m1, m2)
            plan_f = TransportPlan(tuple(entries_f), m1, m2)
            assert wa == wf
            assert plan_a.cost(g) == plan_f.cost(g) == wa

    def test_dual_enumeration_oracle(self):
        # independent dual-side oracle: max of sum phi d(m1 - m2) over all
        # integer 1-Lipschitz potentials equals W1 (transportation LPs have
        # integral dual optima, and metric costs admit phi-based duals)
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
        d = distances(g)
        L = d.diameter
        cases = [
            (idle_measure(g, 0, Fraction(1, 3)), idle_measure(g, 3, Fraction(1, 3))),
            (idle_measure(g, 1, Fraction(2, 5)), idle_measure(g, 4, Fraction(1, 7))),
        ]
        for m1, m2 in cases:
            w, plan = wasserstein(g, m1, m2)
            assert plan.cost(g) == w
            best = max(
                sum((Fraction(phi[v]) * (m1(v) - m2(v)) for v in range(g.n)), Fraction(0))
                for phi in iproduct(range(-L, L + 1), repeat=g.n)
                if all(
                    abs(phi[u] - phi[v]) <= d.d(u, v)
                    for u in range(g.n)
                    for v in range(u + 1, g.n)
                )
            )
            assert w == best

    def test_flow_random_measures_vs_dual_oracle(self):
        # randomized unequal-mass measures on small graphs: primal plan value
        # must hit the enumerated dual optimum exactly
        rng = random.Random(4242)
        for _ in range(6):
            n = 6
            edges = [(i, (i + 1) % n) for i in range(n)]
            extra = [(0, 2), (1, 4), (2, 5), (0, 3)]
            edges += [e for e in extra if rng.random() < 0.7]
            g = build_graph(n, sorted(set(edges)))
            d = distances(g)
            L = d.diameter

            def random_measure():
                weights = [rng.randint(0, 4) for _ in range(n)]
                while sum(weights) == 0:
                    weights = [rng.randint(0, 4) for _ in range(n)]
                total = sum(weights)
                return Measure.from_dict(
                    {v: Fraction(w, total) for v, w in enumerate(weights) if w}
                )

            m1, m2 = random_measure(), random_measure()
            w, plan = wasserstein(g, m1, m2)
            assert plan.cost(g) == w
            best = max(
                sum((Fraction(phi[v]) * (m1(v) - m2(v)) for v in range(n)), Fraction(0))
                for phi in iproduct(range(-L, L + 1), repeat=n)
                if all(
                    abs(phi[u] - phi[v]) <= d.d(u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                )
            )
            assert w == best

    def test_flow_vs_unit_expanded_assignment(self):
        # second primal route: split rational masses into equal unit atoms
        # and solve the resulting assignment problem
        import numpy as np

        from curvlab.transport import _solve, _wasserstein_flow

        rng = random.Random(90125)
        for _ in range(25):
            n = rng.randint(5, 8)
            edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
            for _ in range(rng.randint(0, 4)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = build_graph(n, sorted(edges))
            d = distances(g)
            scale = rng.choice([6, 8, 12])

            def random_units():
                cuts = [rng.randint(0, n - 1) for _ in range(scale)]
                out = {}
                for v in cuts:
                    out[v] = out.get(v, 0) + 1
                return Measure.from_dict(
                    {v: Fraction(c, scale) for v, c in out.items()}
                )

            m1, m2 = random_units(), random_units()
            w_flow, entries = _wasserstein_flow(g, m1.mass, m2.mass)
            assert TransportPlan(tuple(entries), m1, m2).cost(g) == w_flow
            units1 = [v for v, m in m1.mass for _ in range(int(m * scale))]
            units2 = [v for v, m in m2.mass for _ in range(int(m * scale))]
            cost = np.array(
                [[d.d(u, v) for v in units2] for u in units1], dtype=np.int64
            )
            totals, _ = _solve(cost[None])
            assert w_flow == Fraction(int(totals[0]), scale)

    def test_unbalanced_transportation_raises(self):
        # a typed failure survives ``python -O`` and maps to CLI exit 4
        from curvlab.transport import _transportation

        with pytest.raises(UnbalancedTransport) as info:
            _transportation([[0, 1]], [2], [1, 2])
        assert isinstance(info.value, VerificationError)

    def test_plan_marginals_validated(self, q3):
        g, _ = q3
        m1 = idle_measure(g, 0, Fraction(1, 4))
        m2 = idle_measure(g, 7, Fraction(1, 4))
        _, plan = wasserstein(g, m1, m2)
        rows = {}
        for u, v, m in plan.entries:
            rows[u] = rows.get(u, Fraction(0)) + m
        assert rows == m1.as_dict()


class TestKappaP:
    def test_cp3(self, cp3):
        g, _ = cp3
        y = g.adjacency[0][0]
        assert kappa_p(g, 0, y, Fraction(1, 5)).value == Fraction(4, 5)

    def test_idleness_one_is_flat(self, q3):
        g, _ = q3
        assert kappa_p(g, 0, 1, 1).value == 0
        assert kappa_p(g, 0, 7, 1).value == 0

    def test_q3(self, q3):
        g, _ = q3
        assert kappa_p(g, 0, 1, Fraction(1, 4)).value == Fraction(1, 2)

    def test_lly_scaling_above_threshold(self, q3):
        # kappa_p / (1 - p) is constant for idleness above 1/(D+1)
        g, _ = q3
        base = kappa(g, 0, 1).value
        for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
            assert kappa_p(g, 0, 1, p).value == (1 - p) * base

    def test_same_pair_rejected(self, q3):
        g, _ = q3
        with pytest.raises(SamePair):
            kappa_p(g, 3, 3, Fraction(1, 4))


class TestKappa:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hypercube(self, n):
        g = hypercube(n)
        assert kappa(g, 0, 1).value == Fraction(2, n)

    def test_gosset(self, gosset_graph):
        g, _ = gosset_graph
        y = g.adjacency[0][0]
        assert kappa(g, 0, y).value == Fraction(2, 3)

    def test_johnson(self, j63):
        g, _ = j63
        y = g.adjacency[0][0]
        assert kappa(g, 0, y).value == Fraction(2, 3)

    def test_k3_edge(self):
        g = complete(3)
        assert kappa(g, 0, 1).value == Fraction(3, 2)

    def test_k2_edge(self):
        # the smallest sharp graph: kappa = 2 = 2/L at L = 1
        g = complete(2)
        assert kappa(g, 0, 1).value == 2

    def test_c5_edge(self):
        # pentagon: one unit of mass must travel distance 2
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        val = kappa(g, 0, 1)
        assert val.value == Fraction(1, 2) and val.method == "assignment"

    def test_not_regular(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegular):
            kappa(g, 0, 1)


def _certificate(g, x, y):
    """(2 + |N_xy|)/D, kappa at an edge with a perfect adjacency matching."""
    return Fraction(2 + len(common_neighbors(g, x, y)), g.is_regular())


class TestMatchingFastPath:
    """kappa labels an edge "matching" exactly when its difference
    neighbourhoods have a perfect adjacency matching, and its value is then
    (2 + |N_xy|)/D."""

    def test_hypercube(self, q4):
        g, _ = q4
        val = kappa(g, 0, 1)
        assert edge_has_perfect_matching(g, 0, 1)
        assert val.method == "matching" and val.value == _certificate(g, 0, 1) == Fraction(2, 4)

    def test_gosset(self, gosset_graph):
        # 10 vertices a side: the unique matching is the witness, as
        # enumerating 10! bijections would be slow
        g, _ = gosset_graph
        y = g.adjacency[0][0]
        val = kappa(g, 0, y)
        assert unique_perfect_matching(g, *matching_sides(g, 0, y)) is not None
        assert val.method == "matching" and val.value == _certificate(g, 0, y) == Fraction(18, 27)

    def test_demi6(self, demi6):
        g, _ = demi6
        y = g.adjacency[0][0]
        val = kappa(g, 0, y)
        assert edge_has_perfect_matching(g, 0, y)
        assert val.method == "matching" and val.value == _certificate(g, 0, y) == Fraction(10, 15)

    def test_pentagon_has_no_matching(self):
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        val = kappa(g, 0, 1)
        assert not edge_has_perfect_matching(g, 0, 1)
        assert val.method == "assignment" and val.value < _certificate(g, 0, 1)

    def test_agrees_with_assignment_when_it_fires(self, cp4):
        g, d = cp4
        deg = g.is_regular()
        p = Fraction(1, deg + 1)
        for u, v in g.edges():
            val = kappa(g, u, v)
            # the matching label against bijection enumeration, and the value
            # against min-cost flow on the full, uncancelled 1-ball supports
            matched = edge_has_perfect_matching(g, u, v)
            assert (val.method == "matching") == matched
            slow = Fraction(deg + 1, deg) * (
                1 - wasserstein_full_flow(d, idle_measure(g, u, p), idle_measure(g, v, p))
            )
            assert val.value == slow
            if matched:
                assert val.value == _certificate(g, u, v)


class TestBatchedKappas:
    """``kappas`` solves an edge table with one kernel call per left-set
    size, and every value equals ``kappa``'s and the one-problem loop's."""

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_kappas_equals_kappa(self, name):
        g = sample_graph(name)
        d = distances(g)
        deg = g.is_regular()
        pairs = g.edges() + [(0, y) for y in range(1, g.n) if not g.has_edge(0, y)]
        got = kappas(g, pairs)
        assert list(got) == pairs
        for y in range(1, g.n):
            assert got[(0, y)] == kappa(g, 0, y)
        for (x, y), value in got.items():
            bx, by = {x, *g.adjacency[x]}, {y, *g.adjacency[y]}
            left, right = sorted(bx - by), sorted(by - bx)
            c = hungarian_scalar([[d.d(u, v) for v in right] for u in left])[0]
            method = "matching" if d.d(x, y) == 1 and c == len(left) else "assignment"
            assert value == CurvatureValue(Fraction(deg + 1, deg) - Fraction(c, deg * d.d(x, y)), method)

    @pytest.mark.parametrize(
        "spec, sizes",
        [("johnson:6:3", {4: 90}), ("hypercube:2 x cocktailparty:3", {5: 24, 3: 48}), ("complete:4", {0: 6})],
    )
    def test_one_kernel_call_per_left_size(self, monkeypatch, spec, sizes):
        # J(6,3)'s edges all move 4 atoms; the product's Q2 edges move 5 and
        # its CP(3) edges 3; K4's difference neighbourhoods are empty
        g = sample_graph(spec)
        solves = record_calls(monkeypatch, "_kernels", "hungarian")
        GraphAnalysis(g).edge_kappas
        assert sorted((cost.shape[1], cost.shape[0]) for cost, in solves) == sorted(sizes.items())

    def test_blocks_of_one_problem_give_the_same_table(self, monkeypatch):
        g = load_fixture("chang1")
        want = kappas(g, g.edges())
        solves = record_calls(monkeypatch, "_kernels", "hungarian")
        monkeypatch.setattr(transport, "_SOLVE_BLOCK", 1)
        assert kappas(g, g.edges()) == want
        assert len(solves) == g.edge_count

    def test_pairs_are_checked_before_the_graph(self):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(SamePair):
            kappas(two_triangles, [(0, 1), (2, 2)])
        with pytest.raises(Disconnected):
            kappas(two_triangles, [(0, 1)])

    @pytest.mark.parametrize("fault", ["assignment", "row potential", "column potential"])
    def test_certificate_refuses_a_wrong_answer(self, monkeypatch, fault):
        cost = np.array([[[1, 3], [3, 1]], [[2, 2], [1, 1]]], dtype=np.int64)
        totals, row_to_col = transport._solve(cost)
        assert totals.tolist() == [2, 3] and row_to_col.tolist() == [[0, 1], [0, 1]]
        solve = _kernels.hungarian

        def faulty(cost):
            row_to_col, u, v = solve(cost)
            if fault == "assignment":
                return row_to_col[:, ::-1], u, v  # costs 6 on the first problem
            if fault == "row potential":
                u, v = u.copy(), v.copy()
                u[:, 0] += 10  # the same sum, but u_0 + v_1 > c_01
                v[:, 0] -= 10
                return row_to_col, u, v
            return row_to_col, u, v - 1  # feasible, but its sum is below the total

        monkeypatch.setattr(_kernels, "hungarian", faulty)
        with pytest.raises(SolverFailed, match="^an assignment failed its dual certificate$"):
            transport._solve(cost)


class TestGatheredKappas:
    """``kappas`` reads every 1-ball difference off one gathered ball index
    and distance mask; it must equal the two-sets-per-pair loop it
    replaced, ``kappas_by_sets``, in value, label and key order."""

    @staticmethod
    def _pairs(g):
        # every pair on small graphs, every edge on larger ones
        return list(combinations(range(g.n), 2)) if g.n <= 40 else g.edges()

    @staticmethod
    def _relabelled(g, seed):
        perm = random.Random(seed).sample(range(g.n), g.n)
        return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_equals_the_set_loop(self, name):
        g = sample_graph(name)
        for h in (g, self._relabelled(g, 31)):
            pairs = self._pairs(h)
            got = kappas(h, pairs)
            assert list(got.items()) == list(kappas_by_sets(h, pairs).items())

    @pytest.mark.parametrize("name", ["chang1", "hypercube:2 x cocktailparty:3", "kneser:7:2"])
    def test_reversed_and_repeated_pairs(self, name):
        g = sample_graph(name)
        rng = random.Random(32)
        pairs = self._pairs(g)
        mixed = pairs + [(y, x) for x, y in pairs] + rng.choices(pairs, k=len(pairs))
        rng.shuffle(mixed)
        got = kappas(g, mixed)
        assert list(got.items()) == list(kappas_by_sets(g, mixed).items())
        assert all(got[(x, y)] == got[(y, x)] for x, y in pairs)

    @pytest.mark.parametrize("name", ["chang1", "hypercube:2 x cocktailparty:3", "complete:5"])
    def test_blocks_of_one_problem(self, monkeypatch, name):
        g = sample_graph(name)
        pairs = self._pairs(g)
        want = list(kappas_by_sets(g, pairs).items())
        monkeypatch.setattr(transport, "_SOLVE_BLOCK", 1)
        assert list(kappas(g, pairs).items()) == want == list(kappas_by_sets(g, pairs).items())

    @pytest.mark.parametrize("name", ["johnson:6:3", "hypercube:2 x cocktailparty:3", "chang1"])
    def test_sides_are_the_sorted_differences(self, monkeypatch, name):
        # the (left, right) rows handed to the cost reader are the ascending
        # B1(x) - B1(y) and B1(y) - B1(x) of every pair
        g = sample_graph(name)
        pairs = self._pairs(g)
        calls = record_calls(monkeypatch, "transport", "_costs")
        kappas(g, pairs)
        got = sorted(
            (tuple(left), tuple(right))
            for _, us, vs in calls
            for left, right in zip(np.asarray(us).tolist(), np.asarray(vs).tolist())
        )
        want = []
        for x, y in pairs:
            bx, by = {x, *g.adjacency[x]}, {y, *g.adjacency[y]}
            want.append((tuple(sorted(bx - by)), tuple(sorted(by - bx))))
        assert got == sorted(want)

    def test_equal_values_are_one_object(self):
        # J(6,3)'s 90 edges have one value, and its 55 other pairs from
        # vertex 0 one per distance
        g = johnson(6, 3)
        pairs = g.edges() + [(0, y) for y in range(1, g.n) if not g.has_edge(0, y)]
        got = kappas(g, pairs)
        d = distances(g)
        assert len({id(v) for v in got.values()}) == len({d.d(x, y) for x, y in pairs}) == 3

    def test_no_pairs(self, q3):
        g, _ = q3
        assert kappas(g, []) == {}


class TestPairRange:
    """Every curvature entry point refuses a vertex outside [0, n) before
    any gather; numpy would read a negative id from the end."""

    ENTRY_POINTS = {
        "kappas": lambda g, x, y: kappas(g, [(0, 1), (x, y)]),
        "kappa": kappa,
        "kappa_p": lambda g, x, y: kappa_p(g, x, y, Fraction(1, 2)),
        "kappa_plan": _kappa_plan,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "x, y, refusal",
        [(-1, 6, "vertex -1 outside [0,8)"), (0, 8, "vertex 8 outside [0,8)"), (9, -3, "vertex 9 outside [0,8)")],
    )
    def test_refused(self, q3, entry, x, y, refusal):
        g, _ = q3
        with pytest.raises(VertexOutOfRange, match=f"^{re.escape(refusal)}$"):
            self.ENTRY_POINTS[entry](g, x, y)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_huge_id_refused(self, q3, entry):
        g, _ = q3
        with pytest.raises(VertexOutOfRange, match=r"^vertex outside \[0,8\): "):
            self.ENTRY_POINTS[entry](g, 0, 2**70)

    def test_range_is_checked_after_the_pair_and_the_graph(self):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(SamePair):
            kappas(two_triangles, [(0, 7), (7, 7)])
        with pytest.raises(Disconnected):
            kappas(two_triangles, [(0, 7)])
        with pytest.raises(NotRegular):
            kappas(build_graph(3, [(0, 1), (1, 2)]), [(0, 3)])


class TestFlowCertificate:
    """``_transportation`` proves each flow optimal with its own node
    potentials before returning it."""

    # three sources and two sinks with unequal weights: no assignment fits
    COST, SUPPLY, DEMAND = [[1, 3], [2, 2], [4, 1]], [2, 1, 3], [3, 3]

    def test_potentials_certify_the_answer(self):
        total, flow = transport._transportation(self.COST, self.SUPPLY, self.DEMAND)
        # every flow is a split of each supply between the two sinks
        best = min(
            sum(c0 * a + c1 * (sup - a) for (c0, c1), sup, a in zip(self.COST, self.SUPPLY, split))
            for split in iproduct(*(range(sup + 1) for sup in self.SUPPLY))
            if sum(split) == self.DEMAND[0]
        )
        assert total == best and sum(flow.values()) == 6

    @pytest.mark.parametrize("fault", ["reduced cost", "slack arc", "short flow"])
    def test_certificate_refuses_a_wrong_answer(self, monkeypatch, fault):
        certify = transport._certify_flow

        def faulty(cost, supply, demand, flow, phi_s, phi_t, total):
            if fault == "reduced cost":
                phi_t = [phi_t[0] + 1, *phi_t[1:]]  # an arc into sink 0 goes negative
            elif fault == "slack arc":
                phi_t = [q - 1 for q in phi_t]  # feasible, but no flow arc is tight
            else:
                arc = next(iter(flow))
                flow = {**flow, arc: flow[arc] - 1}
                total -= cost[arc[0]][arc[1]]
            certify(cost, supply, demand, flow, phi_s, phi_t, total)

        monkeypatch.setattr(transport, "_certify_flow", faulty)
        with pytest.raises(SolverFailed, match="^a transportation flow failed its dual certificate$"):
            transport._transportation(self.COST, self.SUPPLY, self.DEMAND)


def _flow_branches(run) -> Counter:
    """Run ``run()`` and count, by tracing the lines of
    ``transport._transportation``, three of its branches: a stale heap entry
    popped and skipped, a source pushed onto the heap (the sources that hold
    supply start on it, so a pushed one is spent and reached through a
    backward arc) and a backward arc on which an augmentation cancels flow."""
    code = transport._transportation.__code__
    lines, first = inspect.getsourcelines(transport._transportation)
    text = {first + k: line.strip() for k, line in enumerate(lines)}
    hits: Counter = Counter()

    def local(frame, event, arg):
        if event == "line":
            line = text[frame.f_lineno]
            if line == "continue":
                hits["stale pop"] += 1
            elif line == "flow[a] -= step":
                hits["cancelled arc"] += 1
            elif line.startswith("heapq.heappush") and frame.f_locals["v"] < frame.f_locals["ns"]:
                hits["source reached"] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


class TestFlowByNodes:
    """``_transportation`` numbers sources 0..ns-1 and sinks after them and
    keeps one list per node quantity.  It must equal the per-side solver it
    replaced, ``transportation_by_sides``, bit for bit: the total, the flow
    items in their order and the potentials it hands to ``_certify_flow``."""

    @pytest.fixture
    def solve_both(self, monkeypatch):
        certified = []
        certify = transport._certify_flow

        def recording(cost, supply, demand, flow, phi_s, phi_t, total):
            certified.append((phi_s, phi_t))
            certify(cost, supply, demand, flow, phi_s, phi_t, total)

        monkeypatch.setattr(transport, "_certify_flow", recording)

        def solve_both(cost, supply, demand):
            """(total, flow items, (phi_s, phi_t)) of the change, then of the oracle."""
            answers = []
            for solve in (transport._transportation, transportation_by_sides):
                total, flow = solve(cost, supply, demand)
                answers.append((total, list(flow.items()), certified.pop()))
            return answers

        return solve_both

    @staticmethod
    def _seeded_problems():
        """5000 seeded (cost, supply, demand) problems with positive masses.

        One problem in twenty has up to 30 sources and sinks, the rest up to
        8, so the 5000 run in seconds; costs up to 1 or 2 make many equal
        distances, which the tie rules decide.
        """
        rng = random.Random(30)
        for _ in range(5000):
            top = 30 if rng.random() < 0.05 else 8
            ns, nt = rng.randint(1, top), rng.randint(1, top)
            high = rng.choice((1, 2, 20))
            cost = [[rng.randint(0, high) for _ in range(nt)] for _ in range(ns)]
            supply = [0]
            while sum(supply) < nt:
                supply = [rng.randint(1, 400) for _ in range(ns)]
            cuts = sorted(rng.sample(range(1, sum(supply)), nt - 1))
            demand = [b - a for a, b in zip([0, *cuts], [*cuts, sum(supply)])]
            yield cost, supply, demand

    def test_equals_the_per_side_solver(self, solve_both):
        for case, problem in enumerate(self._seeded_problems()):
            new, old = solve_both(*problem)
            assert new == old, case

    def test_zero_masses_change_nothing(self):
        # zero-supply sources and zero-demand sinks, inserted anywhere with
        # any costs, carry no flow and move no other one: the total and the
        # flow items, renumbered back, stay those of the problem without them
        rng = random.Random(31)
        for case, (cost, supply, demand) in enumerate(self._seeded_problems()):
            want = transport._transportation(cost, supply, demand)
            rows, cols = list(range(len(supply))), list(range(len(demand)))
            # every other problem gains zero sources only; the real nodes keep their order
            for side in (rows, cols) if case % 2 == 0 else (rows,):
                for _ in range(rng.randint(1, 3)):
                    side.insert(rng.randint(0, len(side)), None)
            padded_cost = [
                [cost[i][j] if None not in (i, j) else rng.randint(0, 20) for j in cols]
                for i in rows
            ]
            padded_supply = [0 if i is None else supply[i] for i in rows]
            padded_demand = [0 if j is None else demand[j] for j in cols]
            total, flow = transport._transportation(padded_cost, padded_supply, padded_demand)
            assert (total, [((rows[i], cols[j]), f) for (i, j), f in flow.items()]) == (
                want[0],
                list(want[1].items()),
            ), case

    @pytest.mark.parametrize(
        "problem, answer",
        [
            (([[3], [0]], [1, 0], [1]), (3, {(0, 0): 1})),
            (([[0], [3]], [0, 1], [1]), (3, {(1, 0): 1})),
            (([[3, 0]], [1], [1, 0]), (3, {(0, 0): 1})),
            (([[2, 5], [0, 0]], [0, 0], [0, 0]), (0, {})),
        ],
        ids=["zero-supply-after", "zero-supply-before", "zero-demand", "no-mass"],
    )
    def test_zero_masses_are_certified(self, problem, answer):
        # a zero-supply source is never reached; its potential rises with
        # every augmentation, so its reduced costs stay >= 0 and the
        # certificate holds
        assert transport._transportation(*problem) == answer

    def test_stale_heap_entry(self, solve_both):
        # the sink is pushed at distance 4 from source 0, then at 1 from
        # source 1, so its first entry pops stale
        problem = ([[4], [1]], [3, 5], [8])
        assert _flow_branches(lambda: transport._transportation(*problem))["stale pop"] == 1
        new, old = solve_both(*problem)
        assert new == old and new[:2] == (17, [((1, 0), 5), ((0, 0), 3)])

    def test_paths_cancel_flow_on_backward_arcs(self, monkeypatch, solve_both):
        g, p = load_fixture("chang1"), Fraction(1, 2)
        hits = _flow_branches(lambda: _kappa_p_plan(g, 0, 1, p))
        assert hits["cancelled arc"] == 2
        calls = record_calls(monkeypatch, "transport", "_transportation")
        _kappa_p_plan(g, 0, 1, p)
        new, old = solve_both(*calls[0])
        assert new == old

    def test_spent_source_reached_again(self, solve_both):
        # source 0 ships to sink 0 first (cost 0, the lower node); source 1's
        # path to sink 1 then runs sink 0 -> source 0 -> sink 1 through the
        # spent source 0 and cancels its flow into sink 0
        problem = ([[0, 1], [0, 5]], [1, 1], [1, 1])
        hits = _flow_branches(lambda: transport._transportation(*problem))
        assert hits["source reached"] == 1 and hits["cancelled arc"] == 1
        new, old = solve_both(*problem)
        assert new == old and new[:2] == (1, [((0, 1), 1), ((1, 0), 1)])


class TestReducedRoute:
    """kappa's assignment on the cancelled 1-ball support against min-cost
    flow on the full, uncancelled 1-ball supports, on pairs at distance >= 2."""

    @staticmethod
    def _check_far_pairs(g):
        d = distances(g)
        deg = g.is_regular()
        p = Fraction(1, deg + 1)
        far = [(x, y) for x, y in combinations(range(g.n), 2) if d.d(x, y) >= 2]
        for (x, y), got in kappas(g, far).items():
            assert got.method == "assignment"
            w1 = wasserstein_full_flow(d, idle_measure(g, x, p), idle_measure(g, y, p))
            assert got.value == Fraction(deg + 1, deg) * (1 - w1 / d.d(x, y))
        return len(far)

    def test_random_regular_graphs(self):
        rng = random.Random(618)
        checked = 0
        for _ in range(12):
            deg = rng.choice([3, 4, 5])
            n = rng.choice([m for m in (8, 10, 12, 14) if m > deg + 1])
            checked += self._check_far_pairs(random_regular_graph(n, deg, rng))
        assert checked > 0

    def test_chang1(self):
        assert self._check_far_pairs(load_fixture("chang1")) == 28 * 27 // 2 - 168


class TestCostReader:
    """Both W1 solvers read their costs from ``transport._costs``; ``kappas``
    and the equal-atom branch of ``wasserstein`` share ``_solve``, the one
    certified kernel call; and no function in curvlab takes a distance
    oracle."""

    @staticmethod
    def _record(monkeypatch, capsys, argv):
        from curvlab.cli import main

        costs = record_calls(monkeypatch, "transport", "_costs")
        solves = record_calls(monkeypatch, "transport", "_solve")
        flows = record_calls(monkeypatch, "transport", "_wasserstein_flow")
        assert main(argv) == 0
        capsys.readouterr()
        return costs, solves, flows

    def _count(self, monkeypatch, capsys, argv):
        return tuple(map(len, self._record(monkeypatch, capsys, argv)))

    def test_analyze_reads_one_block_per_edge(self, monkeypatch, capsys):
        # J(6,3) has 90 edges, each with 4 atoms to move; their 4 x 4 cost
        # blocks are read as one stack and solved by one kernel call
        costs, solves, flows = self._record(monkeypatch, capsys, ["analyze", "johnson:6:3"])
        assert (len(costs), len(solves), len(flows)) == (1, 1, 0)
        assert solves[0][0].shape == (90, 4, 4)

    def test_curvature_plan_reads_kappa_and_plan_blocks(self, monkeypatch, capsys):
        # kappa and its plan come from one W1 solve: the idleness-1/(D+1)
        # measures cancel to kappa's own assignment block
        argv = ["curvature", "hypercube:3", "0", "7", "--plan"]
        assert self._count(monkeypatch, capsys, argv) == (1, 1, 0)

    @pytest.mark.parametrize(
        "g",
        [hypercube(3), johnson(5, 2), complete(4), load_fixture("chang1")],
        ids=["q3", "j52", "k4", "chang1"],
    )
    def test_plan_route_reads_kappa_off_its_w1(self, g):
        # value and label equal kappa's on every pair, edges or not, with
        # and without a perfect matching, and the plan carries W1
        labels = set()
        for (x, y), want in kappas(g, combinations(range(g.n), 2)).items():
            val, plan = _kappa_plan(g, x, y)
            assert val == want
            deg = g.degree(x)
            w1 = (Fraction(deg + 1, deg) - val.value) * deg * distances(g).d(x, y) / (deg + 1)
            assert plan.cost(g) == w1
            labels.add(val.method)
        assert "matching" in labels
        with pytest.raises(SamePair):
            _kappa_plan(g, 0, 0)

    def test_idleness_plan_reads_one_flow_block(self, monkeypatch, capsys):
        argv = ["curvature", "hypercube:3", "0", "7", "--p", "1/2", "--plan"]
        assert self._count(monkeypatch, capsys, argv) == (1, 0, 1)

    def test_no_function_takes_a_distance_oracle(self):
        import importlib
        import inspect
        import pkgutil

        import curvlab

        offenders, scanned = [], 0
        for info in pkgutil.iter_modules(curvlab.__path__):
            module = importlib.import_module(f"curvlab.{info.name}")
            owned = [
                v for v in vars(module).values()
                if getattr(v, "__module__", None) == module.__name__
            ]
            callables = [v for v in owned if inspect.isfunction(v)]
            for cls in (v for v in owned if inspect.isclass(v)):
                callables += [
                    getattr(m, "__func__", m)
                    for m in vars(cls).values()
                    if inspect.isfunction(getattr(m, "__func__", m))
                ]
            for fn in callables:
                scanned += 1
                for param in inspect.signature(fn).parameters.values():
                    if "DistanceOracle" in str(param.annotation):
                        offenders.append(f"{module.__name__}.{fn.__qualname__}({param.name})")
        assert scanned > 200
        assert offenders == []


class TestDuality:
    def test_zero_potential_identity(self, q3):
        g, _ = q3
        m = idle_measure(g, 0, Fraction(1, 4))
        _, plan = wasserstein(g, m, m)
        assert certify_duality(g, m, m, plan, {v: 0 for v in range(g.n)})

    def test_distance_potential_antipole_pair(self, q3):
        g, d = q3
        my = idle_measure(g, 7, Fraction(1, 4))
        mx = idle_measure(g, 0, Fraction(1, 4))
        w, plan = wasserstein(g, my, mx)
        phi = {v: Fraction(d.d(0, v)) for v in range(g.n)}
        assert certify_duality(g, my, mx, plan, phi)

    def test_distance_potential_neighbour_pair(self, q3):
        g, d = q3
        my = idle_measure(g, 1, Fraction(1, 4))
        mx = idle_measure(g, 0, Fraction(1, 4))
        w, plan = wasserstein(g, my, mx)
        assert w == Fraction(1, 2)
        phi = {v: Fraction(d.d(0, v)) for v in range(g.n)}
        assert certify_duality(g, my, mx, plan, phi)

    def test_not_lipschitz_rejected(self, q3):
        g, d = q3
        m1 = idle_measure(g, 0, Fraction(1, 4))
        m2 = idle_measure(g, 1, Fraction(1, 4))
        _, plan = wasserstein(g, m1, m2)
        bad = {v: 5 * d.d(0, v) for v in range(g.n)}
        with pytest.raises(NotLipschitz):
            certify_duality(g, m1, m2, plan, bad)

    def test_distance_potential_certifies_on_sharp_fixtures(
        self, q4, cp4, j63, demi6, gosset_graph
    ):
        # the duality sandwich: d(x, .) certifies every computed plan into x
        for g, d in (q4, cp4, j63, demi6, gosset_graph):
            deg = g.is_regular()
            p = Fraction(1, deg + 1)
            x = 0
            phi = {v: Fraction(d.d(x, v)) for v in range(g.n)}
            targets = [g.adjacency[x][0], d.sphere(x, d.diameter)[0]]
            for y in targets:
                my, mx = idle_measure(g, y, p), idle_measure(g, x, p)
                _, plan = wasserstein(g, my, mx)
                assert certify_duality(g, my, mx, plan, phi)


class TestTpmMap:
    def test_q3_cost(self, q3):
        g, d = q3
        left, right = matching_sides(g, 0, 1)
        matching = unique_perfect_matching(g, left, right)
        t = tpm_transport_map(g, 0, 1, matching)
        assert t.cost == Fraction(1, 2)
        assert all(d.d(u, v) <= 1 for u, v in t.mapping)

    def test_gosset_cost(self, gosset_graph):
        g, _ = gosset_graph
        y = g.adjacency[0][0]
        left, right = matching_sides(g, 0, y)
        matching = unique_perfect_matching(g, left, right)
        assert tpm_transport_map(g, 0, y, matching).cost == Fraction(10, 28)

    def test_cp3_cost(self, cp3):
        g, _ = cp3
        y = g.adjacency[0][0]
        left, right = matching_sides(g, 0, y)
        matching = unique_perfect_matching(g, left, right)
        assert tpm_transport_map(g, 0, y, matching).cost == Fraction(1, 5)

    def test_bad_matching_rejected(self, q3):
        g, _ = q3
        with pytest.raises(NotPerfectMatching):
            tpm_transport_map(g, 0, 1, {2: 5})

    def test_maps_build_no_distance_oracle(self, monkeypatch):
        # "is (x, y) an edge" is a neighbour-set lookup; the graph is built
        # while recording, so a generator's oracle would show here too
        bfs = record_calls(monkeypatch, "_kernels", "bfs_all_pairs")
        g = johnson(6, 3)
        y = g.adjacency[0][0]
        left, right = matching_sides(g, 0, y)
        by_matching = tpm_transport_map(g, 0, y, unique_perfect_matching(g, left, right))
        assert unique_tpm_transport_map(g, 0, y) == by_matching
        assert bfs == []


class TestUniqueMatching:
    def test_unique_on_hypercube(self, q4):
        g, _ = q4
        left, right = matching_sides(g, 0, 1)
        m = unique_perfect_matching(g, left, right)
        assert m is not None and len(m) == len(left)

    def test_ambiguous_matching_returns_none(self):
        # K4: edge (0,1); no leftover vertices -> unique trivially; use C6
        # complement-ish: two left vertices each adjacent to both rights
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
        assert unique_perfect_matching(g, (2, 3), (4, 5)) is None

    def test_matches_bijection_enumeration(self):
        # the peeling returns the matching exactly when one all-edge
        # bijection between the matching sides exists, and None for none or many
        rng = random.Random(3)
        graphs = [sample_graph(name) for name in SAMPLE_GRAPHS]
        graphs += [random_regular_graph(n, deg, rng) for n, deg in ((10, 3), (12, 4), (14, 5), (16, 6))]
        counts = set()
        for g in graphs:
            for x, y in g.edges():
                left, right = matching_sides(g, x, y)
                if max(len(left), len(right)) > 6:
                    continue
                matchings = adjacency_bijections(g, left, right)
                want = matchings[0] if len(matchings) == 1 else None
                assert unique_perfect_matching(g, left, right) == want, (g.n, x, y)
                counts.add(min(len(matchings), 2))
        assert counts == {0, 1, 2}

    def test_matches_bijection_enumeration_on_entry_lists(self):
        # lists of up to 6 entries drawn with repeats from one vertex pool,
        # so a side can repeat a vertex and the two sides can share one: a
        # repeated left vertex gives several bijections, a repeated right
        # vertex none, and the peel must answer None to both
        rng = random.Random(30)
        counts, repeated, shared = set(), 0, 0
        for case in range(3000):
            n = rng.randint(2, 9)
            g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
            k = rng.randint(0, 6)
            left = [rng.randrange(n) for _ in range(k)]
            right = [rng.randrange(n) for _ in range(k + (rng.random() < 0.05))]
            matchings = adjacency_bijections(g, left, right)
            want = matchings[0] if len(matchings) == 1 else None
            assert unique_perfect_matching(g, left, right) == want, case
            counts.add(min(len(matchings), 2))
            repeated += len(set(left)) < k or len(set(right)) < len(right)
            shared += bool(set(left) & set(right))
        assert counts == {0, 1, 2} and repeated > 100 and shared > 100

    def test_equals_the_per_vertex_peel(self):
        # on the matching sides of every edge, where no side repeats a vertex
        rng = random.Random(30)
        graphs = [sample_graph(name) for name in SAMPLE_GRAPHS]
        graphs += [random_regular_graph(n, deg, rng) for n, deg in ((10, 3), (12, 4), (14, 5), (16, 6), (20, 7))]
        outcomes = set()
        for g in graphs:
            for x, y in g.edges():
                sides = matching_sides(g, x, y)
                want = unique_perfect_matching_by_vertices(g, *sides)
                assert unique_perfect_matching(g, *sides) == want, (g.n, x, y)
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_repeated_entry_has_no_unique_matching(self):
        # the two nodes of vertex 1 can swap vertices 2 and 3, so two
        # perfect matchings pair the entries; peeling by vertex paired
        # one of them and answered {1: 2}, one pair for two entries
        g = build_graph(4, [(0, 2), (1, 2), (1, 3)])
        assert unique_perfect_matching_by_vertices(g, [1, 1], [2, 3]) == {1: 2}
        assert unique_perfect_matching(g, [1, 1], [2, 3]) is None

    def test_sides_sharing_a_vertex(self):
        # on the path 0-1-2, vertex 1 is an entry of both sides: left 0 can
        # take only right 1, which leaves right 2 to left 1
        g = build_graph(3, [(0, 1), (1, 2)])
        assert unique_perfect_matching(g, [0, 1], [1, 2]) == {0: 1, 1: 2}


class TestTransportGeodesic:
    def test_q3_lengths(self, q3):
        g, _ = q3
        path = geodesic_between(g, 0, 7)
        for z in (0, *g.adjacency[0]):
            tg = transport_geodesic(g, path, z)
            on_ends = (tg.waypoints[0] == path[0]) or (tg.waypoints[-1] == path[-1])
            assert tg.length == (2 if on_ends else 1)

    def test_waypoints_start_repeats_for_base(self, q3):
        g, _ = q3
        path = geodesic_between(g, 0, 7)
        tg = transport_geodesic(g, path, 0)
        assert tg.waypoints[0] == tg.waypoints[1] == 0

    def test_gosset_antipole_of_x1(self, gosset_graph):
        g, d = gosset_graph
        far = d.sphere(0, 3)[0]
        path = geodesic_between(g, 0, far)
        tg = transport_geodesic(g, path, 0)
        assert d.d(path[1], tg.waypoints[3]) == 3

    def test_short_path_rejected(self, q3):
        g, _ = q3
        with pytest.raises(NotFullLength):
            transport_geodesic(g, (0, 1, 3), 0)

    def test_geodesic_between_rejects_off_path_via(self, q3):
        from curvlab.errors import PreconditionUnmet

        g, _ = q3
        with pytest.raises(PreconditionUnmet):
            geodesic_between(g, 0, 3, via=(4,))  # 4 not on any 0-3 geodesic

    def test_geodesic_between_disconnected_pair(self):
        g = build_graph(4, [(0, 1), (2, 3)])  # 2K2
        with pytest.raises(Disconnected):
            geodesic_between(g, 0, 2)
        with pytest.raises(Disconnected):
            geodesic_between(g, 0, 1, via=(2,))

    def test_z_in_another_component_rejected(self, q3):
        # 2K2 is disconnected, so its geodesic is refused before z is read
        g = build_graph(4, [(0, 1), (2, 3)])
        for z in (2, 3):
            with pytest.raises(Disconnected, match="^input graph is disconnected$"):
                transport_geodesic(g, (0, 1), z)
        # on a connected graph, a z outside the 1-ball of the start is refused
        g, _ = q3
        with pytest.raises(PreconditionUnmet, match="^7 is not in the 1-ball of 0$"):
            transport_geodesic(g, geodesic_between(g, 0, 7), 7)

    def test_structured_error_without_sharpness(self, petersen):
        # girth 5 leaves no perfect matching for the step maps
        from curvlab.errors import NotBMSharp

        g, d = petersen
        far = d.sphere(0, 2)[0]
        path = geodesic_between(g, 0, far)
        with pytest.raises(NotBMSharp):
            transport_geodesic(g, path, 0)

    def test_switching_recursion_reproduces_waypoints(self, q4, j63, gosset_graph):
        # the waypoints of z = x0 also arise by iterating switching maps:
        # x0(k) = sigma_{x0(k-1), x_k}(x_{k-1}); two independent routes
        from curvlab.graphs import poles_and_antipoles

        for g, _ in (q4, j63, gosset_graph):
            per_vertex, _ = poles_and_antipoles(g)
            for x in range(0, g.n, max(1, g.n // 4)):
                path = geodesic_between(g, x, per_vertex[x][0])
                tg = transport_geodesic(g, path, x)
                prev = x  # x0(1) = x0
                for k in range(2, len(path)):
                    sigma = switching_map(g, prev, path[k])
                    prev = sigma[path[k - 1]]
                    assert prev == tg.waypoints[k], (x, k)

    def test_concatenation_equality(self, q4):
        # total waypoint displacement equals the summed per-step costs
        g, d = q4
        deg, L = 4, 4
        path = geodesic_between(g, 0, 15)
        total = sum(
            d.d(transport_geodesic(g, path, z).waypoints[0],
                transport_geodesic(g, path, z).waypoints[-1])
            for z in (0, *g.adjacency[0])
        )
        expected = Fraction(L * (deg + 1) - 2 * deg, 1)
        assert Fraction(total) == expected


class TestIntervalAntipole:
    def test_q3(self, q3):
        g, _ = q3
        assert interval_antipole(g, 0, 3, 1) == 2

    def test_cp3_switching_partner(self, cp3):
        g, d = cp3
        x = 0
        y = [v for v in range(g.n) if d.d(x, v) == 2][0]
        sigma = switching_map(g, x, y)
        for x1 in interval(g, x, y) & set(g.adjacency[x]):
            assert interval_antipole(g, x, y, x1) == sigma[x1]

    def test_j63_brute_force_agreement(self, j63):
        g, d = j63
        x = 0
        for y in range(1, g.n):
            for x1 in sorted(interval(g, x, y) & set(g.adjacency[x]))[:2]:
                z = interval_antipole(g, x, y, x1)
                assert z in interval(g, x, y) and d.d(x1, z) == d.d(x, y)

    def test_unreachable_endpoint_is_disconnected(self, q3):
        g = build_graph(4, [(0, 1), (2, 3)])  # 2K2
        for y in (2, 0):  # connectivity is checked before the endpoints
            with pytest.raises(Disconnected):
                interval_antipole(g, 0, y, 1)
        with pytest.raises(SamePair):
            interval_antipole(q3[0], 0, 0, 1)

    def test_petersen_has_no_unique_antipole(self, petersen):
        g, d = petersen
        x = 0
        y = d.sphere(x, 2)[0]
        x1 = sorted(interval(g, x, y) & set(g.adjacency[x]))[0]
        with pytest.raises(NoAntipole):
            interval_antipole(g, x, y, x1)


class TestSwitchingMap:
    def test_q4_swaps_common_pair(self, q4):
        g, d = q4
        z = d.sphere(0, 2)[0]
        sigma = switching_map(g, 0, z)
        (a, b), (c, e) = sigma.items()
        assert {a, b} == {c, e} and a == e and b == c

    def test_gosset_involution(self, gosset_graph):
        g, d = gosset_graph
        z = d.sphere(0, 2)[0]
        sigma = switching_map(g, 0, z)
        assert len(sigma) == 10
        assert all(sigma[sigma[v]] == v and sigma[v] != v for v in sigma)

    def test_demi6_involution(self, demi6):
        g, d = demi6
        z = d.sphere(0, 2)[0]
        assert len(switching_map(g, 0, z)) == 6

    def test_petersen_rejected(self, petersen):
        g, d = petersen
        z = d.sphere(0, 2)[0]
        with pytest.raises(MuGraphNotCP):
            switching_map(g, 0, z)


class TestPairBounds:
    def test_kappa_pair_bound(self, cp3_squared):
        # kappa(z, w) <= 2/d(z, w) for all pairs
        g, d = cp3_squared
        pairs = [(z, w) for z in range(0, g.n, 5) for w in range(z + 1, g.n)]
        for (z, w), value in kappas(g, pairs).items():
            assert value.value <= Fraction(2, d.d(z, w))

    def test_inf_over_edges_equals_inf_over_pairs(self, cp3):
        g, _ = cp3
        edge_inf = min(kappa(g, u, v).value for u, v in g.edges())
        pair_inf = min(
            kappa(g, z, w).value
            for z in range(g.n)
            for w in range(z + 1, g.n)
        )
        assert edge_inf == pair_inf


class TestProductFormula:
    def test_q2_times_k3(self):
        g1, g2 = hypercube(2), complete(3)
        prod = cartesian_product(g1, g2)
        n2 = g2.n
        k1 = kappa(g1, 0, 1).value  # an edge of Q2
        k2 = kappa(g2, 0, 1).value  # an edge of K3
        for u1, v1 in g1.edges():
            for w in range(n2):
                got = kappa(prod, u1 * n2 + w, v1 * n2 + w).value
                assert got == Fraction(2, 4) * kappa(g1, u1, v1).value
        for u2, v2 in g2.edges():
            for w in range(g1.n):
                got = kappa(prod, w * n2 + u2, w * n2 + v2).value
                assert got == Fraction(2, 4) * kappa(g2, u2, v2).value
        assert k1 == 1 and k2 == Fraction(3, 2)

    def test_cp3_squared_edges(self, cp3_squared):
        g, _ = cp3_squared
        base = cocktail_party(3)
        k_base = kappa(base, 0, base.adjacency[0][0]).value
        scaled = Fraction(4, 8) * k_base
        for u, v in g.edges():
            assert kappa(g, u, v).value == scaled


class TestRandomRegularAgainstOracle:
    def test_assignment_vs_bruteforce_small_sample(self):
        rng = random.Random(20240809)
        for _ in range(12):
            n = rng.choice([6, 8, 10])
            g = random_regular_graph(n, 4, rng)
            d = distances(g)
            p = Fraction(1, 5)
            for u, v in g.edges():
                m1, m2 = idle_measure(g, u, p), idle_measure(g, v, p)
                w, _ = wasserstein(g, m1, m2)
                assert w == wasserstein_bruteforce(d, m1, m2)
