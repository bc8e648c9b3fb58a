"""Per-rule fixtures for the ``repro.analysis`` lint engine.

Every rule gets at least one *firing* fixture (the hazard it exists for)
and one *clean* fixture (the idiom the repo actually uses), linted under a
virtual path inside the rule's scope so the path-scoping logic is exercised
too.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source, select_rules
from repro.analysis.findings import Finding

CORE = "src/repro/core/sample.py"
LINKSCHED = "src/repro/linksched/sample.py"
EXPERIMENTS = "src/repro/experiments/sample.py"


def run_rule(rule_id: str, source: str, path: str = CORE) -> list[Finding]:
    result = lint_source(textwrap.dedent(source), path, select_rules([rule_id]))
    return result.findings


class TestSetIteration:
    def test_for_over_set_param_fires(self):
        found = run_rule(
            "DET001",
            """
            def f(items: set[int]) -> list[int]:
                out = []
                for x in items:
                    out.append(x)
                return out
            """,
        )
        assert [f.rule for f in found] == ["DET001"]
        assert found[0].line == 4

    def test_sorted_iteration_is_clean(self):
        assert not run_rule(
            "DET001",
            """
            def f(items: set[int]) -> list[int]:
                return [x for x in sorted(items)]
            """,
        )

    def test_listcomp_over_set_literal_fires(self):
        found = run_rule("DET001", "xs = [x for x in {3, 1, 2}]\n")
        assert len(found) == 1
        assert "comprehension" in found[0].message

    def test_assignment_flow_inference(self):
        found = run_rule(
            "DET001",
            """
            def f() -> None:
                seen = set()
                also = seen
                for x in also:
                    pass
            """,
        )
        assert len(found) == 1

    def test_generator_into_order_safe_consumer_is_clean(self):
        assert not run_rule(
            "DET001",
            """
            def f(items: set[int]) -> int:
                return sum(x for x in items)
            """,
        )

    def test_list_call_on_set_fires(self):
        found = run_rule(
            """DET001""",
            """
            def f(items: frozenset) -> list:
                return list(items)
            """,
        )
        assert len(found) == 1

    def test_out_of_scope_path_is_clean(self):
        # repro/utils is not scheduling code; DET001 does not apply there.
        assert not run_rule(
            "DET001",
            "xs = [x for x in {3, 1, 2}]\n",
            path="src/repro/utils/sample.py",
        )


class TestUnseededRng:
    def test_global_random_module_fires(self):
        found = run_rule(
            "DET002",
            """
            import random

            def f() -> float:
                return random.random()
            """,
            path=EXPERIMENTS,
        )
        assert len(found) == 1
        assert "process-global" in found[0].message

    def test_seeded_random_instance_is_clean(self):
        assert not run_rule(
            "DET002",
            """
            import random

            def f(seed: int) -> float:
                return random.Random(seed).random()
            """,
            path=EXPERIMENTS,
        )

    def test_unseeded_default_rng_fires(self):
        found = run_rule(
            "DET002",
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
            path=EXPERIMENTS,
        )
        assert len(found) == 1
        assert "unseeded" in found[0].message

    def test_seeded_default_rng_is_clean(self):
        assert not run_rule(
            "DET002",
            """
            import numpy as np

            def f(seed: int):
                return np.random.default_rng(seed)
            """,
            path=EXPERIMENTS,
        )

    def test_legacy_np_random_global_fires(self):
        found = run_rule(
            "DET002",
            """
            import numpy as np

            def f() -> float:
                return np.random.rand()
            """,
            path=EXPERIMENTS,
        )
        assert len(found) == 1

    def test_seed_plumbing_module_is_exempt(self):
        assert not run_rule(
            "DET002",
            """
            import numpy as np

            def as_rng(seed=None):
                return np.random.default_rng()
            """,
            path="src/repro/utils/rng.py",
        )


class TestWallClock:
    def test_time_time_fires(self):
        found = run_rule(
            "DET003",
            """
            import time

            def stamp() -> float:
                return time.time()
            """,
        )
        assert len(found) == 1
        assert "wall-clock" in found[0].message

    def test_from_import_alias_fires(self):
        found = run_rule(
            "DET003",
            """
            from time import time as _now

            def stamp() -> float:
                return _now()
            """,
        )
        assert len(found) == 1

    def test_perf_counter_is_clean(self):
        assert not run_rule(
            "DET003",
            """
            import time

            def measure() -> float:
                return time.perf_counter()
            """,
        )

    def test_datetime_now_fires(self):
        found = run_rule(
            "DET003",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert len(found) == 1


class TestFloatEquality:
    def test_float_params_fire(self):
        found = run_rule(
            "FLT001",
            """
            def same(a: float, b: float) -> bool:
                return a == b
            """,
        )
        assert len(found) == 1
        assert "float equality" in found[0].message

    def test_known_float_attribute_fires(self):
        found = run_rule(
            "FLT001",
            """
            def at_origin(slot) -> bool:
                return slot.start == 0
            """,
            path=LINKSCHED,
        )
        assert len(found) == 1

    def test_epsilon_band_is_clean(self):
        assert not run_rule(
            "FLT001",
            """
            def same(a: float, b: float) -> bool:
                return abs(a - b) <= 1e-6
            """,
        )

    def test_int_comparison_is_clean(self):
        assert not run_rule(
            "FLT001",
            """
            def f(n: int) -> bool:
                return n == 0
            """,
        )

    def test_causality_module_is_exempt(self):
        assert not run_rule(
            "FLT001",
            """
            def same(a: float, b: float) -> bool:
                return a == b
            """,
            path="src/repro/linksched/causality.py",
        )


class TestLedgerWrite:
    def test_direct_open_of_ledger_path_fires(self):
        found = run_rule(
            "OBS002",
            """
            def dump(record) -> None:
                with open(".repro-runs/ledger-ab.jsonl", "a") as fh:
                    fh.write(record.to_json() + "\\n")
            """,
            path=EXPERIMENTS,
        )
        assert [f.rule for f in found] == ["OBS002"]
        assert "runlog.append" in found[0].message

    def test_os_open_of_ledger_variable_fires(self):
        found = run_rule(
            "OBS002",
            """
            import os

            def dump(ledger_path, line: bytes) -> None:
                fd = os.open(ledger_path, os.O_WRONLY | os.O_APPEND)
                os.write(fd, line)
            """,
            path=EXPERIMENTS,
        )
        assert len(found) == 1

    def test_write_text_on_runs_dir_path_fires(self):
        found = run_rule(
            "OBS002",
            """
            def dump(runs_dir, payload: str) -> None:
                (runs_dir / "ledger-00.jsonl").write_text(payload)
            """,
            path=EXPERIMENTS,
        )
        assert len(found) == 1

    def test_runlog_module_itself_is_exempt(self):
        assert not run_rule(
            "OBS002",
            """
            def dump(record) -> None:
                with open(".repro-runs/ledger-ab.jsonl", "a") as fh:
                    fh.write(record.to_json() + "\\n")
            """,
            path="src/repro/obs/runlog.py",
        )

    def test_unrelated_write_is_clean(self):
        assert not run_rule(
            "OBS002",
            """
            def dump(path, payload: str) -> None:
                with open(path, "w") as fh:
                    fh.write(payload)
            """,
            path=EXPERIMENTS,
        )

    def test_reading_the_ledger_is_clean(self):
        assert not run_rule(
            "OBS002",
            """
            def load(ledger_path) -> list[str]:
                with open(ledger_path) as fh:
                    return fh.readlines()
            """,
            path=EXPERIMENTS,
        )


class TestStateInternals:
    def test_foreign_private_access_fires(self):
        found = run_rule(
            "TXN001",
            """
            def peek(state):
                return state._queues
            """,
        )
        assert len(found) == 1
        assert "_queues" in found[0].message

    def test_self_access_is_clean(self):
        assert not run_rule(
            "TXN001",
            """
            class Thing:
                def peek(self):
                    return self._queues
            """,
        )

    def test_state_module_itself_is_exempt(self):
        assert not run_rule(
            "TXN001",
            """
            def helper(state):
                return state._undo
            """,
            path="src/repro/linksched/state.py",
        )

    def test_link_queue_import_fires(self):
        found = run_rule(
            "TXN001", "from repro.linksched.state import _LinkQueue\n"
        )
        assert len(found) == 1


EXPERIMENTS_SAMPLE = "src/repro/experiments/sample.py"


class TestWorkerGlobalWrite:
    def test_global_in_worker_fires(self):
        found = run_rule(
            "PUR001",
            """
            COUNT = 0

            def run_unit(config, unit):
                global COUNT
                COUNT += 1
                return COUNT
            """,
            path=EXPERIMENTS_SAMPLE,
        )
        assert len(found) == 1
        assert "global COUNT" in found[0].message

    def test_transitive_helper_inherits_obligation(self):
        found = run_rule(
            "PUR001",
            """
            TOTAL = 0

            def _bump():
                global TOTAL
                TOTAL += 1

            def run_unit(config, unit):
                _bump()
                return TOTAL
            """,
            path=EXPERIMENTS_SAMPLE,
        )
        assert len(found) == 1
        assert "_bump" in found[0].message

    def test_non_worker_global_is_ignored(self):
        assert not run_rule(
            "PUR001",
            """
            COUNT = 0

            def parent_only_tally():
                global COUNT
                COUNT += 1
            """,
            path=EXPERIMENTS_SAMPLE,
        )

    def test_pure_worker_is_clean(self):
        assert not run_rule(
            "PUR001",
            """
            def run_unit(config, unit):
                return config.score(unit)
            """,
            path=EXPERIMENTS_SAMPLE,
        )


class TestWorkerModuleState:
    def test_mutable_module_read_fires(self):
        found = run_rule(
            "PUR002",
            """
            CACHE = {}

            def run_unit(config, unit):
                return CACHE.get(unit)
            """,
            path=EXPERIMENTS_SAMPLE,
        )
        assert len(found) == 1
        assert "CACHE" in found[0].message

    def test_shadowing_local_is_clean(self):
        assert not run_rule(
            "PUR002",
            """
            CACHE = {}

            def run_unit(config, unit):
                CACHE = {}
                return CACHE.get(unit)
            """,
            path=EXPERIMENTS_SAMPLE,
        )

    def test_immutable_module_constant_is_clean(self):
        assert not run_rule(
            "PUR002",
            """
            ALGORITHMS = ("bl-est", "oihsa")

            def run_unit(config, unit):
                return ALGORITHMS[0]
            """,
            path=EXPERIMENTS_SAMPLE,
        )


class TestUnpicklableSubmission:
    def test_lambda_submission_fires(self):
        found = run_rule(
            "PUR003",
            """
            from concurrent.futures import ProcessPoolExecutor

            def drive(work):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda u: u, work))
            """,
            path=EXPERIMENTS_SAMPLE,
        )
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_nested_function_submission_fires(self):
        found = run_rule(
            "PUR003",
            """
            from concurrent.futures import ProcessPoolExecutor

            def drive(work):
                def inner(u):
                    return u
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(inner, work))
            """,
            path=EXPERIMENTS_SAMPLE,
        )
        assert len(found) == 1
        assert "drive.inner" in found[0].message

    def test_module_level_trampoline_is_clean(self):
        assert not run_rule(
            "PUR003",
            """
            from concurrent.futures import ProcessPoolExecutor

            def _star(args):
                return args

            def drive(work):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(_star, work))
            """,
            path=EXPERIMENTS_SAMPLE,
        )
