"""Dynamic cross-validation tests for the concurrency analyzer.

The static RACE/SHR passes claim the registry corpus is race-free and
predict which regions' DSM pages will be shared; these tests run real
workloads with the :class:`SharingObserver` attached and the MSI
shadow model armed, and require (a) every dynamically observed shared
read-write page to be covered by a static finding, (b) predicted
region hotness to rank-correlate with observed coherence faults, and
(c) the fast engine to observe exactly the same shared-pair set as the
exact interpreter — the observer hangs off the DSM miss paths both
engines share, so any divergence is an engine bug, not noise.
"""

import pytest

from repro import validate
from repro.validate.race_checker import (
    SharingObserver,
    check_module,
    check_workload,
    spearman,
)
from repro.workloads.racey import racey_counter_module, racey_publish_module


@pytest.fixture
def validated():
    """Force the MSI shadow model on for the duration of one test."""
    with validate.forced(True):
        yield


# ------------------------------------------------------------ unit level


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_ties_are_rank_averaged(self):
        rho = spearman([1, 1, 2, 3], [1, 2, 3, 4])
        assert rho is not None and 0.0 < rho < 1.0

    def test_degenerate_inputs(self):
        assert spearman([1], [1]) is None
        assert spearman([2, 2, 2], [1, 2, 3]) is None  # zero rank variance


class TestSharingObserver:
    def test_shared_rw_requires_two_tids_and_a_writer(self):
        obs = SharingObserver()
        obs.note_access(0, 100, False, 0.0)
        obs.note_access(1, 100, False, 0.0)  # read-read: not rw-shared
        obs.note_access(0, 200, True, 0.0)   # single-writer private
        obs.note_access(0, 300, True, 0.0)
        obs.note_access(1, 300, False, 0.0)  # write + remote read: shared
        assert obs.shared_rw_pages() == [300]
        assert obs.shared_pairs() == {(300, 0, 1)}

    def test_note_range_marks_every_page_written(self):
        obs = SharingObserver()
        obs.note_range(0, 0x10000, 2 * 4096 + 1, 0.0, 3)
        obs.note_access(1, 0x10, True, 0.0)
        obs.note_access(1, 0x11, False, 0.0)
        assert obs.shared_rw_pages() == [0x10, 0x11]

    def test_cost_attribution(self):
        obs = SharingObserver()
        obs.note_access(0, 7, True, 0.5)
        obs.note_range(0, 8 * 4096, 2 * 4096, 1.0, 2)
        assert obs.page_cost[7] == pytest.approx(0.5)
        assert obs.page_cost[8] == pytest.approx(0.5)
        assert obs.page_cost[9] == pytest.approx(0.5)


# --------------------------------------------------- registry soundness


class TestRegistrySoundness:
    @pytest.mark.parametrize("name", ["ep", "is"])
    def test_shared_pages_covered_and_hotness_ranked(self, name, validated):
        report = check_workload(name, threads=4, scale=0.02)
        assert report.shared_rw_pages > 0  # the check actually saw sharing
        assert report.uncovered == []
        assert report.shadow_faults > 0    # the shadow model was live
        if report.rho is not None:
            assert report.rho >= 0.3
        assert report.ok(min_rho=0.3)

    def test_static_side_recorded(self, validated):
        report = check_workload("ep", threads=2, scale=0.02)
        assert report.predictions > 0
        assert any(
            code.startswith("SHR") for code in report.static_findings
        )
        assert not any(
            code.startswith("RACE") for code in report.static_findings
        )


class TestRaceySoundness:
    def test_racey_counter_dynamic_sharing_is_flagged(self, validated):
        report = check_module(racey_counter_module(), threads=4)
        # The counter page is genuinely shared at run time, and the
        # static side covers it (with RACE001, per tests/test_races.py).
        assert report.shared_rw_pages >= 1
        assert report.uncovered == []
        assert report.static_findings.get("RACE001") == 2
        assert report.pairs

    def test_racey_publish_dynamic_sharing_is_flagged(self, validated):
        report = check_module(racey_publish_module(), threads=2)
        assert report.shared_rw_pages >= 1
        assert report.uncovered == []
        assert report.static_findings.get("RACE002") == 2


# ------------------------------------------ engine parity (fast = exact)


class TestEngineParity:
    def test_registry_shared_pairs_identical(self):
        exact = check_workload("ep", threads=4, scale=0.02, engine="exact")
        fast = check_workload("ep", threads=4, scale=0.02, engine="fast")
        assert exact.pairs == fast.pairs
        assert exact.pairs  # non-vacuous: sharing was observed
        assert exact.shared_rw_pages == fast.shared_rw_pages

    def test_racey_shared_pairs_identical(self):
        exact = check_module(racey_counter_module(), engine="exact")
        fast = check_module(racey_counter_module(), engine="fast")
        assert exact.pairs == fast.pairs
        assert exact.pairs
