"""Tests of distributed-output verification and advice accounting."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.advice import AdviceAssignment
from repro.core.bits import BitString
from repro.core.verification import check_outputs
from repro.graphs.generators import path_graph, random_connected_graph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.runner import GraphSpec, SweepTask, run_tasks
from repro.runner.registry import build_graph
from repro.runner.tasks import clear_graph_memo


class TestCheckOutputs:
    def _good_outputs(self, g, root=0):
        tree = build_rooted_tree(g, kruskal_mst(g), root=root)
        return tree.expected_outputs()

    def test_accepts_correct_outputs(self):
        g = random_connected_graph(25, 0.15, seed=1)
        outputs = self._good_outputs(g, root=3)
        check = check_outputs(g, outputs, expected_root=3)
        assert check.ok and check.root == 3
        assert len(check.tree_edge_ids) == g.n - 1
        assert abs(check.tree_weight - check.mst_weight) < 1e-9

    def test_rejects_missing_outputs(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        del outputs[2]
        assert not check_outputs(g, outputs).ok
        outputs = self._good_outputs(g)
        outputs[2] = None
        assert not check_outputs(g, outputs).ok

    def test_rejects_wrong_root_count(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        outputs[2] = ROOT_OUTPUT  # two roots now
        assert "root" in check_outputs(g, outputs).reason
        outputs = self._good_outputs(g)
        outputs[0] = 0  # no root at all
        assert not check_outputs(g, outputs).ok

    def test_rejects_unexpected_root(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g, root=0)
        assert not check_outputs(g, outputs, expected_root=2).ok

    def test_rejects_invalid_port(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        outputs[1] = 9
        assert "invalid port" in check_outputs(g, outputs).reason

    def test_rejects_parent_cycle(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g, root=0)
        # make nodes 2 and 3 point at each other: a 2-cycle detached from the root
        outputs[2] = [p for p in g.ports(2) if g.neighbor(2, p) == 3][0]
        outputs[3] = [p for p in g.ports(3) if g.neighbor(3, p) == 2][0]
        check = check_outputs(g, outputs)
        assert not check.ok

    def test_rejects_non_minimum_tree(self):
        # a square where one heavy edge must never be used
        from repro.graphs.weighted_graph import PortNumberedGraph

        g = PortNumberedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        outputs = {0: ROOT_OUTPUT}
        # chain 3 -> 0 over the heavy edge, 2 -> 3, 1 -> 2: a spanning tree, not minimal
        outputs[3] = [p for p in g.ports(3) if g.neighbor(3, p) == 0][0]
        outputs[2] = [p for p in g.ports(2) if g.neighbor(2, p) == 3][0]
        outputs[1] = [p for p in g.ports(1) if g.neighbor(1, p) == 2][0]
        check = check_outputs(g, outputs)
        assert not check.ok
        assert "weight" in check.reason

    def test_single_node_graph(self):
        from repro.graphs.weighted_graph import PortNumberedGraph

        g = PortNumberedGraph(1, [])
        assert check_outputs(g, {0: ROOT_OUTPUT}).ok


class TestAdviceAssignment:
    def test_stats(self):
        advice = AdviceAssignment(4)
        advice.set(0, BitString([1, 0, 1]))
        advice.set(2, BitString([1]))
        stats = advice.stats()
        assert stats.max_bits == 3
        assert stats.total_bits == 4
        assert stats.average_bits == 1.0
        assert stats.nodes_with_advice == 2
        assert stats.as_dict()["max_bits"] == 3

    def test_get_default_empty(self):
        advice = AdviceAssignment(3)
        assert advice.get(1) == BitString.empty()
        assert advice.bits_of(1) == 0

    def test_append(self):
        advice = AdviceAssignment(2)
        advice.append(0, BitString([1]))
        advice.append(0, BitString([0, 1]))
        assert advice.get(0) == BitString([1, 0, 1])

    def test_payloads_and_iter(self):
        advice = AdviceAssignment(2)
        advice.set(1, BitString([1]))
        assert advice.as_payloads() == {0: BitString.empty(), 1: BitString([1])}
        assert [node for node, _ in advice] == [0, 1]

    def test_node_range_checks(self):
        advice = AdviceAssignment(2)
        with pytest.raises(ValueError):
            advice.set(5, BitString([1]))
        with pytest.raises(ValueError):
            AdviceAssignment(0)


def _kruskal_cache_writes(tree):
    """Line numbers of every write to a ``_kruskal_cache`` attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "_kruskal_cache"
        ):
            lines.append(node.lineno)
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "_kruskal_cache":
                    lines.append(sub.lineno)
    return lines


class TestVerifierIndependence:
    """The reference MST the verifier compares against is computed by
    Kruskal alone: no code under test may fill its memo."""

    def test_only_kruskal_writes_the_reference_cache(self):
        package = Path(repro.__file__).resolve().parent
        writers = {}
        for path in sorted(package.rglob("*.py")):
            lines = _kruskal_cache_writes(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                writers[path.relative_to(package).as_posix()] = lines
        assert set(writers) == {"mst/kruskal.py"}, writers

    def test_detector_sees_attribute_and_setattr_writes(self):
        source = "g._kruskal_cache = t\nsetattr(g, '_kruskal_cache', t)\nx = g._kruskal_cache\n"
        assert _kruskal_cache_writes(ast.parse(source)) == [1, 2]

    def test_reference_cache_after_a_sweep_is_kruskal_on_a_fresh_copy(self):
        n, density, seeds = 48, 0.1, range(4)
        clear_graph_memo()
        spec = GraphSpec("random", density)
        tasks = [
            SweepTask("scheme", target, spec, n, seed, backend="analytic")
            for seed in seeds
            for target in ("trivial", "theorem2", "theorem3", "theorem3-level")
        ]
        assert all(row["correct"] for row in run_tasks(tasks))
        for seed in seeds:
            used = spec.build(n, seed)  # the memoised instance the sweep ran on
            fresh = build_graph("random", n, seed, density)
            assert used is not fresh
            assert used._kruskal_cache == tuple(kruskal_mst(fresh))
