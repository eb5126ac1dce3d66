"""The semantics design-space experiment (Section IV as data)."""

import pytest

from repro.eval.experiments import semantics_space


@pytest.fixture(scope="module")
def scores():
    return {s.name: s for s in semantics_space.run()}


class TestSemanticsSpace:
    def test_all_four_semantics_scored(self, scores):
        assert set(scores) == {"basic", "outermost", "fcfs",
                               "ew-conscious"}

    def test_basic_fails_nesting(self, scores):
        # Figure 3: the third attach returns an error under Basic.
        assert scores["basic"].nested_errors > 0

    def test_basic_fails_threads(self, scores):
        assert not scores["basic"].thread_composable

    def test_outermost_window_unbounded(self, scores):
        # "This semantics cannot offer needed temporal protections as
        # the actual attached time can be arbitrarily long."
        assert not scores["outermost"].window_bounded

    def test_fcfs_has_reattach_hole(self, scores):
        # "it is hard to distinguish a benign access ... from an
        # invalid access (that may be triggered by the attacker)".
        assert scores["fcfs"].reattach_holes > 0

    def test_ew_conscious_gets_everything(self, scores):
        s = scores["ew-conscious"]
        assert s.thread_composable
        assert s.window_bounded
        assert s.reattach_holes == 0
        # Compiler-style composition produces no errors...
        assert s.sequential_errors == 0
        # ...while raw same-thread nesting is (correctly) rejected.
        assert s.nested_errors > 0

    def test_only_ew_conscious_is_fully_satisfactory(self, scores):
        def satisfactory(s):
            return (s.thread_composable and s.window_bounded
                    and s.reattach_holes == 0
                    and s.sequential_errors == 0)
        winners = [name for name, s in scores.items()
                   if satisfactory(s)]
        assert winners == ["ew-conscious"]

    def test_location_windows(self, scores):
        # Read off each run's Theorem 6 schedule; the hand-rolled
        # open/close loop this replaced gave the same four figures.
        assert {name: s.max_location_window_us
                for name, s in scores.items()} == {
            "basic": 11, "outermost": 1000, "fcfs": 11,
            "ew-conscious": 41}

    def test_render(self, scores):
        text = semantics_space.render(list(scores.values()))
        assert "UNBOUNDED" in text
        assert "ew-conscious" in text
