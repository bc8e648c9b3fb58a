"""Tests for the literature baselines: HEFT, CPOP, annealing, simulate_mapping."""

import pytest

from repro.core.annealing import AnnealingScheduler
from repro.core.ba import BAScheduler
from repro.core.cpop import CPOPScheduler
from repro.core.heft import HEFTScheduler, upward_ranks
from repro.core.cpop import downward_ranks
from repro.core.mapping import simulate_mapping
from repro.core.validate import validate_schedule
from repro.exceptions import SchedulingError
from repro.network.builders import fully_connected, random_wan
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.generators import random_layered_dag
from repro.taskgraph.kernels import fork_join


class TestRanks:
    def test_upward_rank_of_sink_is_normalized_weight(self, diamond4):
        ranks = upward_ranks(diamond4, mean_proc_speed=2.0, mean_link_speed=1.0)
        assert ranks[3] == diamond4.task(3).weight / 2.0

    def test_upward_rank_dominates_successors(self, diamond4):
        ranks = upward_ranks(diamond4, 1.0, 1.0)
        for e in diamond4.edges():
            assert ranks[e.src] > ranks[e.dst]

    def test_downward_rank_of_source_is_zero(self, diamond4):
        ranks = downward_ranks(diamond4, 1.0, 1.0)
        assert ranks[0] == 0.0

    def test_rank_sum_constant_on_critical_path(self, chain3):
        # On a chain every task lies on the critical path: rank_u + rank_d
        # equals the full path length for all of them.
        ru = upward_ranks(chain3, 1.0, 1.0)
        rd = downward_ranks(chain3, 1.0, 1.0)
        totals = {t: ru[t] + rd[t] for t in chain3.task_ids()}
        assert len({round(v, 9) for v in totals.values()}) == 1


class TestHEFT:
    def test_validates(self, diamond4, wan16):
        s = HEFTScheduler().schedule(diamond4, wan16)
        validate_schedule(s)
        assert s.algorithm == "heft"

    def test_prefers_fast_processors(self):
        g = fork_join(4, rng=1)
        net = fully_connected(3, proc_speed=lambda: 1.0)
        fast = net.processors()[1]
        object.__setattr__(fast, "speed", 10.0)
        s = HEFTScheduler().schedule(g, net)
        # The heavy majority of work should land on the 10x processor.
        on_fast = sum(
            1 for pl in s.placements.values() if pl.processor == fast.vid
        )
        assert on_fast >= len(s.placements) // 2

    def test_insertion_fills_gaps(self):
        # HEFT's insertion EFT can only improve on end-technique classic.
        from repro.core.classic import ClassicScheduler

        g = random_layered_dag(30, rng=4)
        net = fully_connected(4)
        heft = HEFTScheduler().schedule(g, net).makespan
        classic_end = ClassicScheduler(task_insertion=False).schedule(g, net).makespan
        assert heft <= classic_end * 1.2


class TestCPOP:
    def test_validates(self, diamond4, wan16):
        s = CPOPScheduler().schedule(diamond4, wan16)
        validate_schedule(s)

    def test_critical_path_is_colocated(self, chain3, net4):
        # A chain IS the critical path: CPOP must place it all on one
        # processor, making the makespan the serial work.
        s = CPOPScheduler().schedule(chain3, net4)
        assert len(s.processors_used()) == 1
        assert s.makespan == chain3.total_work()

    def test_cp_processor_is_fastest(self):
        g = scale_to_ccr(fork_join(4, rng=2), 1.0)
        net = fully_connected(3, proc_speed=(1, 10), rng=9)
        s = CPOPScheduler().schedule(g, net)
        fastest = max(net.processors(), key=lambda p: (p.speed, -p.vid)).vid
        # Entry and exit tasks are always on the critical path.
        assert s.placements[0].processor == fastest


class TestSimulateMapping:
    def test_respects_mapping(self, diamond4, net4):
        procs = [p.vid for p in net4.processors()]
        mapping = {0: procs[0], 1: procs[1], 2: procs[2], 3: procs[0]}
        s = simulate_mapping(diamond4, net4, mapping)
        validate_schedule(s)
        for tid, vid in mapping.items():
            assert s.placements[tid].processor == vid

    def test_missing_task_rejected(self, diamond4, net4):
        with pytest.raises(SchedulingError):
            simulate_mapping(diamond4, net4, {0: 0})

    def test_non_processor_rejected(self, diamond4, net4):
        switch = net4.switches()[0].vid
        mapping = {t.tid: switch for t in diamond4.tasks()}
        with pytest.raises(SchedulingError):
            simulate_mapping(diamond4, net4, mapping)

    def test_bad_order_rejected(self, diamond4, net4):
        p = net4.processors()[0].vid
        mapping = {t.tid: p for t in diamond4.tasks()}
        with pytest.raises(SchedulingError):
            simulate_mapping(diamond4, net4, mapping, order=[0, 1])

    def test_single_processor_mapping_is_serial(self, diamond4, net4):
        p = net4.processors()[0].vid
        mapping = {t.tid: p for t in diamond4.tasks()}
        s = simulate_mapping(diamond4, net4, mapping)
        assert s.makespan == diamond4.total_work()


class TestAnnealing:
    def test_validates_and_never_worse_than_seed(self):
        g = scale_to_ccr(random_layered_dag(20, rng=6), 2.0)
        net = random_wan(6, rng=7)
        ba = BAScheduler().schedule(g, net)
        sa = AnnealingScheduler(iterations=60, rng=1).schedule(g, net)
        validate_schedule(sa)
        # Replaying BA's own mapping through simulate_mapping can differ
        # slightly from BA (edge order), but annealing keeps the best seen.
        assert sa.makespan <= ba.makespan * 1.05

    def test_deterministic_given_seed(self):
        g = scale_to_ccr(random_layered_dag(15, rng=8), 1.0)
        net = random_wan(4, rng=9)
        m1 = AnnealingScheduler(iterations=40, rng=3).schedule(g, net).makespan
        m2 = AnnealingScheduler(iterations=40, rng=3).schedule(g, net).makespan
        assert m1 == m2

    def test_random_seed_start(self):
        g = random_layered_dag(10, rng=1)
        net = random_wan(4, rng=2)
        s = AnnealingScheduler(iterations=30, seed_with_ba=False, rng=5).schedule(g, net)
        validate_schedule(s)

    @pytest.mark.parametrize(
        "seed_with_ba,makespan",
        [(True, 11894.516320474779), (False, 11621.891286754793)],
    )
    def test_trajectory_is_pinned(self, seed_with_ba, makespan):
        # Each move draws ``seq[gen.integers(0, len(seq))]``, which gives the
        # values and the stream of the ``gen.choice(seq)`` draws these
        # makespans were taken with.
        g = scale_to_ccr(random_layered_dag(20, rng=6), 2.0)
        net = random_wan(10, rng=7, procs_per_switch=(2, 5))
        s = AnnealingScheduler(
            iterations=120, rng=4, seed_with_ba=seed_with_ba
        ).schedule(g, net)
        assert s.makespan == makespan

    def test_bad_params_rejected(self):
        with pytest.raises(SchedulingError):
            AnnealingScheduler(iterations=0)
        with pytest.raises(SchedulingError):
            AnnealingScheduler(cooling=0.0)

    def test_improves_a_bad_start_on_contended_net(self):
        # With a random start, annealing should find something no worse.
        g = scale_to_ccr(fork_join(6, rng=3), 4.0)
        net = random_wan(6, rng=11)
        first = AnnealingScheduler(iterations=1, seed_with_ba=False, rng=2).schedule(g, net)
        longer = AnnealingScheduler(iterations=150, seed_with_ba=False, rng=2).schedule(g, net)
        assert longer.makespan <= first.makespan + 1e-9
