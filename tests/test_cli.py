"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "oihsa" in out
        assert "random_wan" in out
        assert "gaussian_elimination" in out


class TestSchedule:
    def test_random_workload(self, capsys):
        assert main(["schedule", "--tasks", "10", "--procs", "4", "--no-gantt"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_kernel_workload(self, capsys):
        assert (
            main(
                [
                    "schedule", "--kernel", "fork_join", "--size", "4",
                    "--algorithm", "ba", "--procs", "4", "--ccr", "1.5",
                    "--no-gantt",
                ]
            )
            == 0
        )
        assert "ba:" in capsys.readouterr().out

    def test_gantt_included_by_default(self, capsys):
        main(["schedule", "--tasks", "6", "--procs", "2"])
        assert "processors:" in capsys.readouterr().out

    def test_every_algorithm(self, capsys):
        for algo in ("classic", "ba", "oihsa", "bbsa"):
            assert main(["schedule", "--tasks", "8", "--algorithm", algo, "--no-gantt"]) == 0


class TestScheduleStats:
    def test_stats_prints_instrumentation(self, capsys):
        # A 3x3 mesh gives every route a choice, so OIHSA searches; on four
        # processors of one switch every route is forced.
        for topology, counters in (
            (["--topology", "mesh2d", "--procs", "3"],
             ("insertion.probes", "routing.relaxations")),
            (["--procs", "4"], ("routing.forced_routes",)),
        ):
            assert (
                main(
                    [
                        "schedule", "--algorithm", "oihsa", "--tasks", "12",
                        *topology, "--ccr", "2.0", "--stats", "--no-gantt",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "instrumentation:" in out
            for counter in counters:
                assert counter in out

    def test_obs_left_disabled(self, capsys):
        from repro import obs

        main(["schedule", "--tasks", "8", "--procs", "4", "--stats", "--no-gantt"])
        assert not obs.is_enabled()
        obs.reset()

    def test_trace_out_round_trips(self, tmp_path, capsys):
        from repro.obs import EVENT_KINDS, read_jsonl

        path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "schedule", "--algorithm", "oihsa", "--tasks", "12",
                    "--procs", "4", "--ccr", "2.0", "--no-gantt",
                    "--trace-out", str(path),
                ]
            )
            == 0
        )
        events = read_jsonl(str(path))
        assert events
        assert {e.kind for e in events} <= EVENT_KINDS
        assert "wrote decision-event log" in capsys.readouterr().out


class TestEvalKernel:
    """The ``--eval-kernel`` switch: selection, stats surface, and guards."""

    def test_python_kernel_shown_in_stats(self, capsys):
        assert (
            main(
                [
                    "schedule", "--algorithm", "annealing", "--tasks", "8",
                    "--procs", "4", "--eval-kernel", "python", "--stats",
                    "--no-gantt",
                ]
            )
            == 0
        )
        assert "kernel: python" in capsys.readouterr().out

    def test_auto_resolution_shown_in_stats(self, capsys):
        from repro.core.kernelreg import active_kernel

        assert (
            main(
                [
                    "schedule", "--algorithm", "annealing", "--tasks", "8",
                    "--procs", "4", "--stats", "--no-gantt",
                ]
            )
            == 0
        )
        expected = f"kernel: {active_kernel('auto')}"
        assert expected in capsys.readouterr().out

    def test_rejected_for_non_search_algorithms(self, capsys):
        assert (
            main(
                [
                    "schedule", "--algorithm", "oihsa", "--tasks", "8",
                    "--eval-kernel", "python", "--no-gantt",
                ]
            )
            == 2
        )
        assert "mapping-search" in capsys.readouterr().out

    def test_profile_shows_kernel_column(self, capsys):
        assert (
            main(
                [
                    "profile", "--scale", "smoke", "--algorithms", "annealing",
                    "--eval-kernel", "python",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel" in out.splitlines()[2]
        assert "python (batch 1)" in out


class TestProfile:
    def test_smoke_breakdown_table(self, capsys):
        assert (
            main(["profile", "--scale", "smoke", "--algorithms", "ba", "oihsa"])
            == 0
        )
        out = capsys.readouterr().out
        assert "routing" in out and "insertion" in out and "proc-select" in out
        assert "ba" in out and "oihsa" in out

    def test_search_rows_charge_scoring(self, capsys):
        assert (
            main(
                [
                    "profile", "--scale", "smoke", "--algorithms", "annealing",
                    "genetic", "--eval-kernel", "python",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split()[-2:] == ["scoring", "other"]
        for row in lines[4:6]:
            cells = row.split()
            wall, scoring, other = float(cells[-7]), float(cells[-2]), float(cells[-1])
            assert scoring > other and scoring > wall / 2

    def test_every_scheduler_profiles(self, capsys):
        from repro.core import SCHEDULERS

        assert main(["profile", "--scale", "smoke", "--algorithms", *SCHEDULERS]) == 0
        rows = capsys.readouterr().out.splitlines()[4:]
        assert [row.split()[0] for row in rows] == list(SCHEDULERS)

    def test_unknown_algorithm_fails(self, capsys):
        assert main(["profile", "--scale", "smoke", "--algorithms", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().out

    def test_obs_left_disabled(self, capsys):
        from repro import obs

        main(["profile", "--scale", "smoke", "--algorithms", "classic"])
        assert not obs.is_enabled()
        obs.reset()


class TestAblation:
    def test_named(self, capsys):
        assert main(["ablation", "edge_order", "--procs", "4"]) == 0
        assert "descending-cost" in capsys.readouterr().out


class TestFigures:
    def test_smoke_single_figure(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figures", "--scale", "smoke", "--only", "figure1",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "figure1" in out and "shape checks" in out


class TestFiguresParallelCache:
    ARGS = ["figures", "--scale", "smoke", "--only", "figure1"]

    def test_jobs_2_matches_jobs_1(self, tmp_path, capsys):
        argv = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_dir_populated_and_reported(self, tmp_path, capsys):
        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert list(tmp_path.glob("*/*.json")), "cache dir should hold records"
        assert "[cache]" in captured.err
        assert "[cache]" not in captured.out  # stdout stays cache-agnostic

    def test_no_cache_leaves_dir_untouched(self, tmp_path, capsys):
        assert (
            main(self.ARGS + ["--no-cache", "--cache-dir", str(tmp_path)]) == 0
        )
        captured = capsys.readouterr()
        assert not list(tmp_path.rglob("*.json"))
        assert "[cache]" not in captured.err

    def test_warm_cache_rerun_matches_cold(self, tmp_path, capsys):
        argv = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "0 misses" in captured.err

    def test_bad_jobs_rejected(self, capsys):
        assert main(self.ARGS + ["--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestExport:
    @pytest.mark.parametrize("fmt", ["svg", "trace", "json"])
    def test_export_formats(self, tmp_path, capsys, fmt):
        out = tmp_path / f"schedule.{fmt}"
        assert (
            main(
                [
                    "export", str(out), "--format", fmt, "--tasks", "8",
                    "--procs", "4", "--ccr", "1.0",
                ]
            )
            == 0
        )
        assert out.exists() and out.stat().st_size > 0
        assert "wrote" in capsys.readouterr().out

    def test_exported_json_reloads(self, tmp_path):
        from repro.core.io import schedule_from_json
        from repro.core.validate import validate_schedule

        out = tmp_path / "s.json"
        main(["export", str(out), "--format", "json", "--tasks", "6", "--procs", "3"])
        validate_schedule(schedule_from_json(out.read_text()))


class TestExplainCli:
    def test_text_report(self, capsys):
        assert main(["explain", "--tasks", "10", "--procs", "4",
                     "--algorithm", "ba"]) == 0
        out = capsys.readouterr().out
        assert "attributed along the binding chain" in out
        assert "binding resources" in out
        assert "utilization over the whole schedule" in out
        assert "binding chain" in out

    def test_no_chain_hides_the_segment_table(self, capsys):
        assert main(["explain", "--tasks", "10", "--procs", "4",
                     "--no-chain"]) == 0
        out = capsys.readouterr().out
        assert "binding resources" in out
        assert "binding chain:" not in out

    def test_json_attribution_sums_to_makespan(self, capsys):
        import json

        assert main(["explain", "--tasks", "12", "--procs", "4",
                     "--algorithm", "oihsa", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segments"]
        assert sum(doc["by_category"].values()) == pytest.approx(
            doc["makespan"], abs=1e-9
        )

    def test_trace_out_writes_critical_path_track(self, tmp_path, capsys):
        import json

        path = tmp_path / "explain.trace.json"
        assert main(["explain", "--tasks", "10", "--procs", "4",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = [
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        ]
        assert "critical path" in names


class TestUnwritableOutput:
    """An output path that cannot be opened fails before any scheduling:
    one line on stderr, nothing on stdout, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--tasks", "8", "--procs", "4", "--trace-out"],
            ["explain", "--tasks", "8", "--procs", "4", "--trace-out"],
            ["export", "--tasks", "8", "--procs", "4", "--format", "json"],
            ["topo", "build", "leaf_spine", "--procs", "8", "-o"],
        ],
        ids=["schedule", "explain", "export", "topo-build"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        path = str(tmp_path / "missing-dir" / "out")
        if argv[0] == "export":
            argv = ["export", path] + argv[1:]
        else:
            argv = argv + [path]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"repro: cannot write {path}: No such file or directory"
        ]


class TestUnreadableInput:
    """An input path that cannot be opened: one line on stderr, nothing on
    stdout, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["topo", "validate", "leaf_spine", "--procs", "8", "--file"],
            ["runs", "compare", "--baseline"],
        ],
        ids=["topo-validate", "runs-compare"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        path = str(tmp_path / "missing.json")
        assert main(argv + [path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"repro: cannot read {path}: No such file or directory"
        ]


class TestWorkloadArguments:
    """``schedule``, ``explain`` and ``export`` share one workload parser."""

    VERBS = [["schedule"], ["explain"], ["export", "out.svg"]]

    @pytest.mark.parametrize(
        "topology,procs,expected",
        [("mesh2d", 3, 9), ("torus2d", 3, 9), ("torus3d", 2, 8),
         ("random_wan", 5, 5)],
    )
    def test_topology_sizing(self, topology, procs, expected):
        from repro.__main__ import _workload_from_args

        for verb in self.VERBS:
            args = build_parser().parse_args(
                verb + ["--topology", topology, "--procs", str(procs)]
            )
            _, net = _workload_from_args(args)
            assert len(net.processors()) == expected

    @pytest.mark.parametrize("topology", ["torus2d", "torus3d"])
    def test_schedule_on_torus(self, topology, capsys):
        assert main(["schedule", "--topology", topology, "--procs", "2",
                     "--tasks", "8", "--no-gantt", "--no-runlog"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_export_on_mesh2d(self, tmp_path, capsys):
        out = tmp_path / "mesh.svg"
        assert main(["export", str(out), "--topology", "mesh2d",
                     "--procs", "2", "--tasks", "8"]) == 0
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("verb", VERBS, ids=["schedule", "explain", "export"])
    def test_unknown_topology_exits_2(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--topology", "nosuch"])
        assert exc.value.code == 2
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err

    def test_unknown_kernel_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--kernel", "nosuch"])
        assert exc.value.code == 2
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def _ledger_run_id(err: str) -> str:
    for line in err.splitlines():
        if line.startswith("[ledger] run "):
            return line.split()[-1]
    raise AssertionError(f"no ledger line in stderr: {err!r}")


class TestRunsCli:
    def _schedule(self, capsys, *extra) -> str:
        assert main(["schedule", "--tasks", "8", "--procs", "4",
                     "--no-gantt", *extra]) == 0
        return _ledger_run_id(capsys.readouterr().err)

    def test_schedule_appends_and_list_shows_it(self, capsys):
        run_id = self._schedule(capsys)
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "schedule" in out

    def test_no_runlog_leaves_the_ledger_empty(self, capsys):
        assert main(["schedule", "--tasks", "8", "--no-gantt",
                     "--no-runlog"]) == 0
        captured = capsys.readouterr()
        assert "[ledger]" not in captured.err
        assert main(["runs", "list"]) == 0
        assert "(no runs recorded" in capsys.readouterr().out

    def test_stdout_is_identical_with_and_without_runlog(self, capsys):
        assert main(["schedule", "--tasks", "8", "--no-gantt"]) == 0
        with_ledger = capsys.readouterr().out
        assert main(["schedule", "--tasks", "8", "--no-gantt",
                     "--no-runlog"]) == 0
        assert capsys.readouterr().out == with_ledger

    def test_show_prints_the_record(self, capsys):
        run_id = self._schedule(capsys, "--algorithm", "ba")
        assert main(["runs", "show", run_id[:6]]) == 0
        out = capsys.readouterr().out
        assert f"run {run_id}" in out
        assert "makespan[ba]" in out

    def test_diff_two_runs(self, capsys):
        a = self._schedule(capsys, "--algorithm", "ba")
        b = self._schedule(capsys, "--algorithm", "oihsa", "--seed", "2")
        assert main(["runs", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert f"a: run {a}" in out
        assert "note: configs differ" in out
        assert "makespan[ba]" in out and "makespan[oihsa]" in out

    def test_unknown_run_id_fails_cleanly(self, capsys):
        assert main(["runs", "show", "zzzz"]) == 1
        assert "no ledger record" in capsys.readouterr().err

    def test_compare_regression_then_ok_from_ledger(self, tmp_path, capsys):
        import json

        # A deliberately wrong baseline: the fresh bench run (ba only, to
        # stay fast) regresses against it and exits non-zero...
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"algorithms": {"ba": {"makespan": 1.0}}}))
        assert main(["runs", "compare", "--baseline", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "running the bench workload fresh" in captured.err
        # ...and appended its record; a corrected baseline then compares OK
        # straight from the ledger (no fresh run, nothing on stderr).
        from repro.obs.runlog import RunLedger

        record = RunLedger().latest(kind="bench")
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(
            {"algorithms": {"ba": {
                "makespan": record.makespans["ba"],
                "counters": record.meta["counters"]["ba"],
            }}}
        ))
        assert main(["runs", "compare", "--baseline", str(good)]) == 0
        captured = capsys.readouterr()
        assert "OK: 1 algorithms within tolerance" in captured.out
        assert "fresh" not in captured.err


class TestTopoCli:
    """The ``repro topo build / info / validate`` fabric verbs."""

    def test_build_emits_topology_json(self, capsys):
        assert main(["topo", "build", "fat_tree", "--k", "4"]) == 0
        out = capsys.readouterr().out
        import json

        doc = json.loads(out)
        assert doc["format"] == "repro.network/v1"
        assert doc["name"] == "fat_tree-k4-16p"
        kinds = [v["kind"] for v in doc["vertices"]]
        assert kinds.count("processor") == 16
        assert kinds.count("switch") == 20

    def test_build_is_deterministic(self, capsys):
        argv = ["topo", "build", "torus", "--dims", "3", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_build_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "fabric.json"
        assert main(["topo", "build", "leaf_spine", "--leaves", "2",
                     "--spines", "2", "--hosts-per-leaf", "3",
                     "-o", str(out_path)]) == 0
        assert "wrote leaf_spine-2x2-6p" in capsys.readouterr().out
        from repro.network.io import topology_from_json

        net = topology_from_json(out_path.read_text())
        assert len(net.processors()) == 6

    def test_info_prints_closed_form_structure(self, capsys):
        assert main(["topo", "info", "fat_tree", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "fabric:     fat_tree" in out
        assert "processors: 16" in out
        assert "switches:   20" in out
        assert "diameter:   <= 6 hops" in out
        assert "ecmp" not in out and "routing:" not in out

    def test_info_sizes_fabric_from_procs(self, capsys):
        assert main(["topo", "info", "leaf_spine", "--procs", "40"]) == 0
        out = capsys.readouterr().out
        assert "processors: 40" in out

    def test_validate_ok(self, capsys):
        assert main(["topo", "validate", "torus", "--dims", "2", "3",
                     "--hosts-per-node", "2"]) == 0
        assert capsys.readouterr().out == "OK: torus-2x3-12p valid\n"

    def test_validate_checks_file_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "ls.json"
        assert main(["topo", "build", "leaf_spine", "--procs", "10",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["topo", "validate", "leaf_spine", "--procs", "10",
                     "--file", str(out_path)]) == 0
        assert "matches" in capsys.readouterr().out

    def test_validate_flags_tampered_file(self, tmp_path, capsys):
        out_path = tmp_path / "ls.json"
        assert main(["topo", "build", "leaf_spine", "--procs", "10",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        out_path.write_text(out_path.read_text().replace('"speed": 1.0',
                                                         '"speed": 2.0', 1))
        assert main(["topo", "validate", "leaf_spine", "--procs", "10",
                     "--file", str(out_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_build_stdout_digest_is_pinned(self, capsys):
        # Cable order fixes link ids, hence routes and every makespan.
        import hashlib

        assert main(["topo", "build", "leaf_spine", "--procs", "128"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "e333d14ecec7656dd05c48da957cd9090b0d16b1fbd4a3fef4c8a50a587b36af"
        )

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["topo", "build", "fat_tree", "--k", "3"]) == 2
        assert "even" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["topo"])

    def test_figures_accepts_fabric_topology(self, capsys):
        assert main(["figures", "--scale", "smoke", "--only", "figure2",
                     "--topology", "torus", "--no-cache", "--no-runlog",
                     "--jobs", "2"]) == 0
        assert "figure2" in capsys.readouterr().out
