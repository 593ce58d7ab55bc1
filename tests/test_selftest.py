"""Every acceptance criterion of ``latroids.selftest`` passes in Tier-1."""

from __future__ import annotations

import pytest

from latroids.selftest import CRITERIA

# Number of checks each criterion reports on the seed-0 corpora.
CHECK_COUNTS = {1: 30, 2: 7, 3: 31, 4: 91, 5: 43, 6: 22, 7: 10, 8: 6, 9: 282, 10: 32}


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: f"c{c.number}")
def test_criterion_passes(criterion):
    report = criterion.run(0)
    assert report.ok, report.summary()
    assert len(report.checks) == CHECK_COUNTS[criterion.number]


def test_every_criterion_is_counted():
    assert sorted(c.number for c in CRITERIA) == sorted(CHECK_COUNTS)
