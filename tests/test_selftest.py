"""Every acceptance criterion of ``latroids.selftest`` passes in Tier-1."""

from __future__ import annotations

import pytest
from test_lattices import clear_lattice_caches

from latroids import (
    cli,
    code_latroids,
    codes,
    enumerators,
    isometries,
    lattices,
    selftest,
    supports,
)
from latroids.selftest import CRITERIA

MODULES = (cli, code_latroids, codes, enumerators, isometries, lattices, selftest, supports)

# Number of checks each criterion reports on the seed-0 corpora.
CHECK_COUNTS = {1: 30, 2: 7, 3: 31, 4: 91, 5: 43, 6: 22, 7: 10, 8: 6, 9: 282, 10: 32}


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: f"c{c.number}")
def test_criterion_passes(criterion):
    report = criterion.run(0)
    assert report.ok, report.summary()
    assert len(report.checks) == CHECK_COUNTS[criterion.number]


def test_every_criterion_is_counted():
    assert sorted(c.number for c in CRITERIA) == sorted(CHECK_COUNTS)


def counted_everywhere(monkeypatch, function):
    """Count the calls of ``function`` through every ``latroids`` module that
    holds it (the package imports by name), with the selftest corpora and
    the shared lattices uncached so that building them counts too,
    whichever tests ran before."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in MODULES:
        if getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    for value in vars(selftest).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    clear_lattice_caches()
    return calls


def test_run_all_validates_modularity_seven_times(monkeypatch):
    # criterion 8 validates four supports; criterion 7 scans the paper's Z_6
    # support once (``is_modular`` keeps its verdict) and its two split parts
    # once each; ChainSupports (the rect latroid, the product-ring
    # enumerators) are modular by construction
    calls = counted_everywhere(monkeypatch, supports.validate_modular)
    assert all(report.ok for _, _, report in selftest.run_all(0))
    assert len(calls) == 7


def test_isometry_criterion_enumerates_each_side_once(monkeypatch):
    calls = counted_everywhere(monkeypatch, codes.enumerate_submodules)
    assert next(c for c in CRITERIA if c.number == 7).run(0).ok
    assert len(calls) == 8  # 4 invariance checks, the code and its image


def test_run_all_grades_18_lattices(monkeypatch):
    # a ratchet: of the lattices run_all(0) builds, only those whose height
    # is read are graded (the latroid corpus and the crypto checks); the
    # intervals and duals of criterion 9 mostly are not, and the kept
    # boolean, submodule and subspace lattices are built, so graded, once
    calls = counted_everywhere(monkeypatch, lattices._height_if_graded)
    assert all(report.ok for _, _, report in selftest.run_all(0))
    assert len(calls) == 18
