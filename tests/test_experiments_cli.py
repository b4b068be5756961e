"""Tests for the experiment harness, drivers, reporting, and the CLI."""

from __future__ import annotations

import pytest

from repro.core import QueryResult
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    aggregate_results,
    format_result,
    format_results,
    render_table,
    run_workload,
)
from repro.experiments.figures import (
    clear_cache,
    figure13_traversal_strategies,
    figure10_contact_network_size,
    reachgrid_vs_spj,
    reduction_ratio,
    table1_complexity,
    table4_average_degree,
)
from repro.experiments.report import format_results_json, result_to_dict
from repro.cli import _QUICK_OVERRIDES, build_parser, main


class TestHarness:
    def test_aggregate_results_means(self):
        results = [
            QueryResult(reachable=True, io=10.0, random_ios=8, cpu_seconds=0.002, visited=4),
            QueryResult(reachable=False, io=20.0, random_ios=16, cpu_seconds=0.004, visited=8),
        ]
        aggregate = aggregate_results("m", results)
        assert aggregate.mean_io == pytest.approx(15.0)
        assert aggregate.mean_random_ios == pytest.approx(12.0)
        assert aggregate.reachable_fraction == pytest.approx(0.5)
        assert aggregate.as_row()["method"] == "m"

    def test_aggregate_of_empty_results(self):
        aggregate = aggregate_results("m", [])
        assert aggregate.num_queries == 0
        assert aggregate.mean_io == 0.0

    def test_run_workload_with_limit(self):
        calls = []

        def evaluate(query):
            calls.append(query)
            return QueryResult(reachable=True, io=1.0)

        aggregate = run_workload(evaluate, range(10), method="count", limit=4)
        assert aggregate.num_queries == 4
        assert len(calls) == 4

    def test_experiment_result_columns(self):
        result = ExperimentResult("x", "desc")
        result.add_row(a=1, b=2)
        result.add_row(a=3, c=4)
        assert result.column_names() == ["a", "b", "c"]
        assert result.column("a") == [1, 3]
        assert result.column("c") == [4]


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_result_includes_notes(self):
        result = ExperimentResult("exp", "a description")
        result.add_row(x=1)
        result.add_note("something to remember")
        text = format_result(result)
        assert "exp" in text and "a description" in text
        assert "something to remember" in text

    def test_format_result_with_no_rows(self):
        text = format_result(ExperimentResult("empty", "nothing"))
        assert "(no rows)" in text

    def test_format_results_joins_sections(self):
        a = ExperimentResult("a", "first")
        b = ExperimentResult("b", "second")
        text = format_results([a, b])
        assert "== a:" in text and "== b:" in text


class TestExperimentDrivers:
    """Quick sanity runs of representative drivers on the tiny datasets."""

    @classmethod
    def teardown_class(cls):
        clear_cache()

    def test_registry_covers_every_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "reduction",
            "table4",
            "figure12",
            "figure13",
            "spj",
            "figure14",
            "figure15",
            "table5",
            "stream",
            "stream-disk",
            "stream-space",
            "stream-query",
        }

    def test_table1_is_static(self):
        result = table1_complexity()
        assert len(result.rows) == 3
        approaches = result.column("approach")
        assert approaches == ["GRAIL", "ReachGraph", "ReachGrid"]

    def test_reduction_ratio_on_tiny_datasets(self):
        result = reduction_ratio(dataset_names=("rwp-tiny",))
        row = result.rows[0]
        assert row["dn_vertices"] < row["ten_vertices"]
        assert 0 < row["vertex_reduction_pct"] < 100

    def test_figure10_sizes_grow_with_horizon(self):
        result = figure10_contact_network_size(
            dataset_names=("rwp-tiny",), horizon_fractions=(0.5, 1.0)
        )
        vertices = result.column("dn_vertices")
        assert vertices[0] <= vertices[1]

    def test_table4_degree_grows_with_resolution(self):
        result = table4_average_degree(dataset_names=("rwp-tiny",), resolutions=(2, 8))
        degrees = {row["resolution"]: row["average_degree"] for row in result.rows}
        assert degrees[8] >= degrees[2]

    def test_figure13_strategy_rows(self):
        result = figure13_traversal_strategies(
            dataset_names=("rwp-tiny",), num_queries=5
        )
        strategies = result.column("strategy")
        assert strategies == ["bm-bfs", "b-bfs", "e-dfs"]
        by_strategy = {row["strategy"]: row["mean_visited"] for row in result.rows}
        assert by_strategy["bm-bfs"] <= by_strategy["e-dfs"]

    def test_spj_driver_reports_improvement_column(self):
        result = reachgrid_vs_spj(dataset_names=("rwp-tiny",), num_queries=3)
        assert "improvement_pct" in result.column_names()


class TestReportingJson:
    def test_result_to_dict_shape(self):
        result = ExperimentResult("exp", "a description")
        result.add_row(x=1, y="a")
        result.add_note("remember")
        payload = result_to_dict(result)
        assert payload["experiment"] == "exp"
        assert payload["columns"] == ["x", "y"]
        assert payload["rows"] == [{"x": 1, "y": "a"}]
        assert payload["notes"] == ["remember"]

    def test_format_results_json_is_parseable(self):
        import json

        result = ExperimentResult("exp", "desc")
        result.add_row(value=3.5)
        document = json.loads(format_results_json([result]))
        assert document["results"][0]["rows"] == [{"value": 3.5}]


class TestCli:
    def test_parser_accepts_known_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["figure13", "--quick", "--output", "report.txt"])
        assert args.experiment == "figure13"
        assert args.quick is True
        assert args.output == "report.txt"
        assert args.json is None
        assert args.storage_backend is None

    def test_parser_validates_storage_backend(self):
        parser = build_parser()
        assert (
            parser.parse_args(["stream", "--storage-backend", "file"]).storage_backend
            == "file"
        )
        with pytest.raises(SystemExit):
            parser.parse_args(["stream", "--storage-backend", "tape"])

    def test_quick_overrides_reference_known_experiments(self):
        # Guards against drift when experiments are added or renamed: every
        # --quick override must target a registered experiment.
        assert set(_QUICK_OVERRIDES) <= set(EXPERIMENTS)

    def test_quick_overrides_use_valid_driver_keywords(self):
        import inspect

        for name, overrides in _QUICK_OVERRIDES.items():
            driver = EXPERIMENTS[name]
            parameters = inspect.signature(driver).parameters
            if any(
                parameter.kind is inspect.Parameter.VAR_KEYWORD
                for parameter in parameters.values()
            ):
                continue  # driver forwards **kwargs; nothing to check here
            unknown = set(overrides) - set(parameters)
            assert not unknown, f"{name}: unknown override keys {unknown}"

    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_unknown_experiment_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_running_table1_prints_table(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "ReachGraph" in output and "ReachGrid" in output

    def test_output_file_is_written(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["table1", "--output", str(target)]) == 0
        capsys.readouterr()
        assert "GRAIL" in target.read_text()

    def test_json_file_is_written(self, tmp_path, capsys):
        import json

        target = tmp_path / "results.json"
        assert main(["table1", "--json", str(target)]) == 0
        capsys.readouterr()
        document = json.loads(target.read_text())
        assert document["results"][0]["experiment"] == "table1"
        assert len(document["results"][0]["rows"]) == 3

    def test_quick_construction_columns_are_pinned(self, tmp_path, capsys):
        """The deterministic columns of the two construction experiments, at
        experiment scale: long edges per resolution (augmentation), partitions
        and IO per depth (placement).  Captured before construction became
        per-window / per-vertex; a faster build must not move any of them.
        ``mean_io`` was re-pinned twice (docs/PERFORMANCE.md §5 and §11):
        BM-BFS stopped reading a DN_1 neighbour, then a long-edge target,
        just to reject it."""
        import json

        rows = {}
        for name in ("table4", "figure12"):
            target = tmp_path / f"{name}.json"
            assert main([name, "--quick", "--json", str(target)]) == 0
            rows[name] = json.loads(target.read_text())["results"][0]["rows"]
        capsys.readouterr()
        long_edges = {}
        for row in rows["table4"]:
            long_edges.setdefault(row["dataset"], []).append(row["long_edges"])
        assert long_edges == {
            "rwp-tiny": [970, 921, 890, 1000, 1343],
            "vn-tiny": [682, 603, 528, 552, 611],
        }
        assert [row["partitions"] for row in rows["figure12"]] == [448, 124, 42, 37]
        assert [row["mean_io"] for row in rows["figure12"]] == [8.775, 6.294, 5.756, 5.213]

    def test_quick_strategy_columns_are_pinned(self, tmp_path, capsys):
        """Figure 13's IOs and visits per query, per traversal strategy.
        B-BFS and E-DFS were captured before BM-BFS stopped reading
        long-edge targets to reject them, and that change must not move
        them; it moved BM-BFS's ``mean_io`` on ``rwp-tiny`` only (5.344 ->
        5.213, docs/PERFORMANCE.md §11), and no ``mean_visited``."""
        import json

        target = tmp_path / "figure13.json"
        assert main(["figure13", "--quick", "--json", str(target)]) == 0
        rows = json.loads(target.read_text())["results"][0]["rows"]
        capsys.readouterr()
        assert [
            (row["dataset"], row["strategy"], row["mean_io"], row["mean_visited"])
            for row in rows
        ] == [
            ("rwp-tiny", "bm-bfs", 5.213, 11.4),
            ("rwp-tiny", "b-bfs", 5.075, 11.6),
            ("rwp-tiny", "e-dfs", 5.575, 113.9),
            ("vn-tiny", "bm-bfs", 4.05, 13.9),
            ("vn-tiny", "b-bfs", 4.05, 12.6),
            ("vn-tiny", "e-dfs", 4.306, 39.8),
        ]

    def test_quick_reachgrid_columns_are_pinned(self, tmp_path, capsys):
        """The deterministic columns of the three ReachGrid experiments, at
        experiment scale: IOs per query by grid resolution (figure 8), against
        SPJ, and against ReachGraph by interval length (figure 14).  Captured
        before Algorithm 1 became a frontier join and the join kernel was
        shared; a cheaper query must read exactly the same blocks.  Figure
        14's ``reachgraph_mean_io`` column moved twice, with figure 12's
        (docs/PERFORMANCE.md §5 and §11); the ReachGrid and SPJ columns never
        have."""
        import json

        rows = {}
        for name in ("figure8", "spj", "figure14"):
            target = tmp_path / f"{name}.json"
            assert main([name, "--quick", "--json", str(target)]) == 0
            rows[name] = json.loads(target.read_text())["results"][0]["rows"]
        capsys.readouterr()
        assert [
            (row["panel"], row["spatial_resolution_m"], row["temporal_resolution"], row["mean_io"])
            for row in rows["figure8"]
        ] == [
            ("a", 100.0, 10, 55.837),
            ("a", 200.0, 10, 27.012),
            ("a", 400.0, 10, 14.094),
            ("a", 800.0, 10, 11.662),
            ("a", 1600.0, 10, 11.662),
            ("b", 100.0, 5, 79.006),
            ("b", 100.0, 10, 55.837),
            ("b", 100.0, 20, 41.294),
            ("b", 100.0, 40, 41.956),
            ("b", 100.0, 80, 43.631),
        ]
        assert [
            (row["dataset"], row["reachgrid_mean_io"], row["spj_mean_io"], row["improvement_pct"])
            for row in rows["spj"]
        ] == [("rwp-tiny", 60.11, 20.39, -194.8), ("vn-tiny", 11.95, 13.57, 11.9)]
        assert [
            (row["dataset"], row["query_length"], row["reachgrid_mean_io"], row["reachgraph_mean_io"])
            for row in rows["figure14"]
        ] == [
            ("rwp-tiny", 50, 32.958, 3.958),
            ("rwp-tiny", 100, 25.658, 5.092),
            ("rwp-tiny", 200, 71.208, 6.117),
            ("vn-tiny", 50, 7.667, 3.175),
            ("vn-tiny", 100, 10.975, 3.75),
            ("vn-tiny", 200, 10.725, 4.95),
        ]

    def test_json_dash_prints_to_stdout(self, capsys):
        import json

        assert main(["table1", "--json", "-"]) == 0
        output = capsys.readouterr().out
        # The text report comes first, then the JSON document.
        document = json.loads(output[output.index("{") :])
        assert document["results"][0]["experiment"] == "table1"
