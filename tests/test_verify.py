"""The verification suite itself: shape of results and suite selection."""

import pytest

import liefoliate
from liefoliate.roots import build_root_system
from liefoliate.verify import SUITES, criterion_3_dynkin_figures, criterion_4_fibonacci, timed_suite


def test_suite_names():
    assert "all" in SUITES
    assert set(SUITES["all"]) == set(range(11))
    with pytest.raises(KeyError, match="unknown suite"):
        next(timed_suite("bogus"))


def test_fast_suites_pass():
    for suite in ("catalog", "parabolic"):
        for (name, ok, detail), _ in timed_suite(suite):
            assert ok, f"{name}: {detail}"
            assert isinstance(detail, str) and detail


@pytest.mark.parametrize("criterion", [criterion_3_dynkin_figures, criterion_4_fibonacci])
def test_the_diagram_criteria_build_no_root_system(criterion):
    liefoliate.clear_caches()
    name, ok, detail = criterion()
    assert ok, f"{name}: {detail}"
    assert build_root_system.cache_info().misses == 0
