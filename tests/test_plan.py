"""Tests of the instance-grouped batch executor (repro.runner.plan)."""

import json

import pytest

from repro.runner import (
    ExecutionStats,
    GraphSpec,
    SQLiteResultStore,
    SweepTask,
    execute_task,
    plan_groups,
    run_tasks,
)
from repro.runner.plan import instance_key
from repro.runner.registry import build_graph


def _mixed_grid():
    """Schemes on both backends plus a baseline, over a shared seed grid."""
    tasks = [
        SweepTask("scheme", target, GraphSpec("random", 0.1), n, seed, backend=backend)
        for n in (12, 20)
        for seed in (0, 1)
        for target in ("trivial", "theorem2", "theorem3", "theorem3-level")
        for backend in ("engine", "analytic")
    ]
    tasks += [
        SweepTask("baseline", name, GraphSpec("random", 0.1), n, seed)
        for n in (12, 20)
        for seed in (0, 1)
        for name in ("ghs", "full-info")
    ]
    return tasks


SCHEMES = ("trivial", "theorem2", "theorem3", "theorem3-level")
BASELINES = ("ghs", "full-info")


def _point_tasks(family, num_seeds, n=16, backend="analytic", density=0.2):
    """Every scheme and baseline of one sweep point over ``num_seeds`` seeds."""
    tasks = [
        SweepTask("scheme", target, GraphSpec(family, density), n, seed, backend=backend)
        for seed in range(num_seeds)
        for target in SCHEMES
    ]
    tasks += [
        SweepTask("baseline", name, GraphSpec(family, density), n, seed)
        for seed in range(num_seeds)
        for name in BASELINES
    ]
    return tasks


def _isolated_rows(tasks):
    """Each task run on its own, from a fresh graph memo."""
    from repro.runner.tasks import clear_graph_memo

    clear_graph_memo()
    return [execute_task(task) for task in tasks]


class TestPlanGroups:
    def test_groups_partition_the_task_list(self):
        tasks = _mixed_grid()
        groups = plan_groups(tasks)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(tasks)))
        # 2 sizes x 2 seeds = 4 shared instances
        assert len(groups) == 4
        for group in groups:
            keys = {instance_key(task) for task in group.tasks}
            assert len(keys) == 1

    def test_groups_preserve_first_seen_order(self):
        tasks = _mixed_grid()
        groups = plan_groups(tasks)
        first_indices = [g.indices[0] for g in groups]
        assert first_indices == sorted(first_indices)
        # within a group, indices stay in task order
        for group in groups:
            assert list(group.indices) == sorted(group.indices)

    def test_closure_tasks_become_singleton_groups(self):
        factory = lambda n, seed: build_graph("cycle", n, seed)  # noqa: E731
        tasks = [
            SweepTask("scheme", "trivial", factory, 8, 0),
            SweepTask("scheme", "trivial", factory, 8, 0),
        ]
        groups = plan_groups(tasks)
        assert [g.indices for g in groups] == [(0,), (1,)]
        assert all(g.key is None for g in groups)

    def test_density_normalisation_matches_task_identity(self):
        # density shapes only the "random" family, so cycle specs with
        # different densities describe the same instance -> one group
        a = SweepTask("scheme", "trivial", GraphSpec("cycle", 0.05), 8, 0)
        b = SweepTask("scheme", "theorem2", GraphSpec("cycle", 0.9), 8, 0)
        assert instance_key(a) == instance_key(b)
        c = SweepTask("scheme", "trivial", GraphSpec("random", 0.05), 8, 0)
        d = SweepTask("scheme", "trivial", GraphSpec("random", 0.9), 8, 0)
        assert instance_key(c) != instance_key(d)


    def test_seeds_of_one_point_become_one_group_each(self):
        tasks = _point_tasks("random", 5)
        groups = plan_groups(tasks)
        assert [g.key[3] for g in groups] == list(range(5))
        per_seed = len(SCHEMES) + len(BASELINES)
        assert all(len(g.tasks) == per_seed for g in groups)

    def test_mixed_roots_share_one_instance_group(self):
        tasks = [
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.2), 12, 0, root=root)
            for root in (0, 1, 2)
        ]
        groups = plan_groups(tasks)
        assert [g.indices for g in groups] == [(0, 1, 2)]
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))

    def test_non_mst_problems_group_by_instance(self):
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.2), 12, seed)
            for seed in (0, 1)
            for target in ("leader/flag", "mst/trivial")
        ]
        groups = plan_groups(tasks)
        assert [g.indices for g in groups] == [(0, 1), (2, 3)]
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))


class TestGroupedExecution:
    def test_serial_and_parallel_are_byte_identical(self):
        tasks = _mixed_grid()
        serial = run_tasks(tasks)
        parallel = run_tasks(tasks, jobs=4)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_execute_task_matches_grouped_row(self):
        task = SweepTask("scheme", "theorem3", GraphSpec("random", 0.1), 16, 3)
        (grouped_row,) = run_tasks([task])
        assert json.dumps(execute_task(task)) == json.dumps(grouped_row)

    def test_stats_report_groups_and_stages(self):
        from repro.runner.tasks import clear_graph_memo

        clear_graph_memo()
        tasks = _mixed_grid()
        stats = ExecutionStats()
        run_tasks(tasks, stats=stats)
        assert stats.groups == 4
        assert stats.cache_misses == len(tasks) and stats.cache_hits == 0
        stages = stats.stages_dict()
        assert set(stages) == {"graph", "trace", "advice", "execute"}
        assert stages["execute"] > 0.0

    def test_warm_cache_skips_group_construction_entirely(self, tmp_path):
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.1), 12, seed)
            for seed in (0, 1)
            for target in ("trivial", "theorem3")
        ]
        cold = ExecutionStats()
        first = run_tasks(tasks, cache_dir=tmp_path, stats=cold)
        assert cold.groups == 2 and cold.cache_misses == len(tasks)

        warm = ExecutionStats()
        cache = SQLiteResultStore(tmp_path)
        second = run_tasks(tasks, cache_dir=cache, stats=warm)
        assert cache.hits == len(tasks)
        assert warm.groups == 0  # no group was ever constructed
        assert warm.stage_seconds == {}
        assert json.dumps(first) == json.dumps(second)

    def test_advice_shared_across_backends_of_one_scheme(self):
        # one instance, one scheme, both backends: the context computes
        # the advice once and both rows still agree with isolated runs
        tasks = [
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.1), 24, 5, backend=b)
            for b in ("engine", "analytic")
        ]
        grouped = run_tasks(tasks)
        isolated = [execute_task(task) for task in tasks]
        assert json.dumps(grouped) == json.dumps(isolated)
        assert grouped[0] == grouped[1]  # backends agree row for row



class TestMultiSeedPoints:
    """Many seeds of one sweep point: grouped rows equal isolated rows."""

    @pytest.mark.parametrize("family", ["random", "powerlaw", "hypercube"])
    @pytest.mark.parametrize("num_seeds", [1, 5, 16])
    def test_grouped_rows_equal_isolated_rows(self, family, num_seeds):
        tasks = _point_tasks(family, num_seeds)
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))

    def test_engine_backend_rows_equal_isolated_rows(self):
        tasks = _point_tasks("random", 4, n=12, backend="engine")
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))

    def test_parallel_multi_seed_point_is_identical(self):
        tasks = _point_tasks("random", 6, n=12)
        serial = run_tasks(tasks)
        parallel = run_tasks(tasks, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_heterogeneous_grid_groups_per_size_and_seed(self):
        tasks = [
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.2), n, seed)
            for n in (12, 20)
            for seed in (0, 1, 2)
        ]
        stats = ExecutionStats()
        rows = run_tasks(tasks, stats=stats)
        assert stats.groups == 6
        assert json.dumps(rows) == json.dumps(_isolated_rows(tasks))

    def test_stats_count_one_group_per_seed(self):
        tasks = _point_tasks("random", 4)
        stats = ExecutionStats()
        run_tasks(tasks, stats=stats)
        assert stats.groups == 4
        assert stats.cache_misses == len(tasks) and stats.cache_hits == 0
        stages = stats.stages_dict()
        assert set(stages) == {"graph", "trace", "advice", "execute"}
        assert stages["execute"] > 0.0


hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


_task_strategy = st.builds(
    SweepTask,
    kind=st.just("scheme"),
    target=st.sampled_from(["trivial", "theorem2", "theorem3"]),
    graph=st.builds(
        GraphSpec,
        family=st.sampled_from(["random", "cycle", "hypercube"]),
        density=st.sampled_from([0.05, 0.1]),
    ),
    n=st.integers(4, 64),
    seed=st.integers(0, 5),
    root=st.integers(0, 3),
    backend=st.sampled_from(["engine", "analytic"]),
)


class TestPlanGroupsProperty:
    @settings(max_examples=60, deadline=None)
    @given(tasks=st.lists(_task_strategy, max_size=40))
    def test_plan_groups_partitions_exactly(self, tasks):
        groups = plan_groups(tasks)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(tasks)))  # exact partition
        for group in groups:
            # group membership agrees with the shared-instance identity
            assert len({instance_key(task) for task in group.tasks}) == 1
            assert [tasks[i] for i in group.indices] == list(group.tasks)
        # distinct groups never share an identity
        keys = [instance_key(g.tasks[0]) for g in groups]
        assert len(keys) == len(set(keys))
