"""Tests of in-server response-time analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rta.bcrt import best_case_response_time
from repro.rta.taskset import Task
from repro.rta.wcrt import worst_case_response_time
from repro.servers.model import PeriodicServer
from repro.servers.rta import (
    server_best_case_response_time,
    server_latency_jitter,
    server_worst_case_response_time,
)


def _task(name, period, wcet, bcet=None):
    return Task(name=name, period=period, wcet=wcet, bcet=bcet)


class TestReductionToDedicatedProcessor:
    """Theta = Pi must reproduce eqs. (3)-(4) exactly."""

    @given(
        st.floats(0.05, 0.4),
        st.floats(0.05, 0.4),
        st.floats(0.2, 1.0),
    )
    @settings(max_examples=40)
    def test_full_bandwidth_matches_plain_analyses(self, u1, u2, bfrac):
        server = PeriodicServer(budget=5.0, period=5.0)
        hi = _task("hi", 3.0, 3.0 * u1, 3.0 * u1 * bfrac)
        me = _task("me", 7.0, 7.0 * u2, 7.0 * u2 * bfrac)
        lo = _task("lo", 40.0, 4.0, 4.0 * bfrac)
        worst_plain = worst_case_response_time(lo, [hi, me], limit=1e9)
        worst_served = server_worst_case_response_time(
            server, lo, [hi, me], limit=1e9
        )
        assert worst_served == pytest.approx(worst_plain, rel=1e-9)
        best_plain = best_case_response_time(lo, [hi, me])
        best_served = server_best_case_response_time(server, lo, [hi, me])
        assert best_served == pytest.approx(best_plain, rel=1e-9)


class TestServerWcrt:
    def test_solo_task_half_server(self):
        # 2 units of work on a (2, 4) server: blackout 4 + 2 served = 6.
        server = PeriodicServer(budget=2.0, period=4.0)
        task = _task("t", 100.0, 2.0)
        assert server_worst_case_response_time(server, task, []) == pytest.approx(6.0)

    def test_work_spanning_budget_chunks(self):
        server = PeriodicServer(budget=2.0, period=4.0)
        task = _task("t", 100.0, 3.0)
        # blackout 4 + full chunk (ends 6) + 1 unit into next chunk at 8+1.
        assert server_worst_case_response_time(server, task, []) == pytest.approx(9.0)

    def test_smaller_budget_never_helps_wcrt(self):
        # R^w IS monotone in the budget (unlike the jitter).
        task = _task("t", 100.0, 3.0)
        small = PeriodicServer(budget=1.5, period=4.0)
        large = PeriodicServer(budget=3.0, period=4.0)
        r_small = server_worst_case_response_time(small, task, [])
        r_large = server_worst_case_response_time(large, task, [])
        assert r_large <= r_small

    def test_interference_inside_server(self):
        server = PeriodicServer(budget=2.0, period=4.0)
        hi = _task("hi", 10.0, 1.0)
        lo = _task("lo", 100.0, 2.0)
        served = server_worst_case_response_time(server, lo, [hi])
        solo = server_worst_case_response_time(server, lo, [])
        assert served > solo

    def test_limit_gives_inf(self):
        server = PeriodicServer(budget=1.0, period=10.0)
        task = _task("t", 12.0, 2.0)
        assert (
            server_worst_case_response_time(server, task, [], limit=12.0)
            == float("inf")
        )

    def test_saturated_hp_gives_inf(self):
        # hp demand fills the whole bandwidth: the task is never served.
        # Iterating would stop at 2 + 1e-10, because the ceiling guard
        # reads the quotient 1 + 5e-11 as 1 and drops hog's second job.
        server = PeriodicServer(budget=5.0, period=5.0)
        hog = _task("hog", 2.0, 2.0)
        starved = _task("starved", 10.0, 1e-10)
        assert (
            server_worst_case_response_time(server, starved, [hog], limit=10.0)
            == float("inf")
        )


class TestServerBcrt:
    def test_solo_task_best_case(self):
        # Best case: budget immediately; 3 units on (2, 4): 2 at once,
        # then wait for the next period boundary: t = 4 + 1 = 5.
        server = PeriodicServer(budget=2.0, period=4.0)
        task = _task("t", 100.0, 3.0, 3.0)
        assert server_best_case_response_time(server, task, []) == pytest.approx(5.0)

    def test_bcrt_below_wcrt(self):
        server = PeriodicServer(budget=2.0, period=5.0)
        hi = _task("hi", 9.0, 1.0, 0.5)
        lo = _task("lo", 100.0, 3.0, 2.0)
        best = server_best_case_response_time(server, lo, [hi])
        worst = server_worst_case_response_time(server, lo, [hi], limit=1e9)
        assert best <= worst

    def test_interface_object(self):
        server = PeriodicServer(budget=2.0, period=4.0)
        task = _task("t", 100.0, 3.0, 2.0)
        times = server_latency_jitter(server, task, deadline=100.0)
        assert times.latency == pytest.approx(
            server_best_case_response_time(server, task, [])
        )
        assert times.jitter >= 0


class TestJitterBudgetMonotonicity:
    def test_solo_task_jitter_is_exactly_twice_the_slack(self):
        """A task alone in a server has J = 2 (Pi - Theta): both extremes
        share the chunk structure; only the initial blackout differs."""
        task = _task("t", 1000.0, 3.0, 3.0)
        for budget in (1.5, 2.0, 2.5, 3.0):
            server = PeriodicServer(budget=budget, period=4.0)
            times = server_latency_jitter(server, task, deadline=1000.0)
            assert times.jitter == pytest.approx(2.0 * (4.0 - budget))

    def test_budget_increase_can_increase_jitter_with_companions(self):
        """The server-flavoured anomaly (pinned instance found by random
        search): with a higher-priority companion inside the server,
        raising the budget from 2.0 to 2.4 *increases* the control task's
        jitter -- the reason server sizing scans instead of bisecting."""
        hi = _task("hi", 15.0, 1.29, 1.01)
        lo = _task("lo", 1000.0, 2.4, 2.28)
        jitters = {}
        for budget in (2.0, 2.4):
            server = PeriodicServer(budget=budget, period=4.0)
            times = server_latency_jitter(server, lo, [hi], deadline=1000.0)
            jitters[budget] = times.jitter
        assert jitters[2.4] > jitters[2.0] + 1e-9
        assert jitters[2.0] == pytest.approx(5.41, abs=0.01)
        assert jitters[2.4] == pytest.approx(6.21, abs=0.01)
