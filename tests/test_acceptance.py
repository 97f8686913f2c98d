"""Acceptance gate: one test per criterion, printing one pass/fail line each.

Every check delegates to the self-verification module, so the CLI `verify`
subcommand and this suite always agree.
"""
import time

from weylhull import verify


def _run(number: int, **kwargs) -> None:
    name = verify.CRITERIA[number][0]
    began = time.perf_counter()
    results = verify.run_criterion(number, **kwargs)
    elapsed = time.perf_counter() - began
    failures = [r for r in results if not r.passed]
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:2d} ({name}): {verdict} "
          f"[{len(results) - len(failures)}/{len(results)} checks]")
    print(f"    {elapsed:.2f} s")
    for r in failures:
        print(f"    {r.name}: expected {r.expected}, observed {r.observed}")
    assert not failures, f"criterion {number} ({name}): {len(failures)} check(s) failed"


def test_criterion_01_one_dimensional_identities():
    _run(1)


def test_criterion_02_wendel_equivalence():
    _run(2)


def test_criterion_03_region_count_oracle():
    _run(3)


def test_criterion_04_subspace_count_oracle():
    _run(4)


def test_criterion_05_klivans_swartz():
    _run(5)


def test_criterion_06_kernel_chamber_constancy():
    _run(6)


def test_criterion_07_distribution_freeness():
    _run(7, samples=100000)


def test_criterion_08_lattice_lower_bound():
    _run(8, samples=100000)


def test_criterion_09_crofton_monte_carlo():
    _run(9, samples=100000)


def test_criterion_10_steiner_monte_carlo():
    _run(10, samples=100000)


def test_criterion_11_critical_window():
    # the a = -1 subcase sits at gap 0.053 vs the 0.05 tolerance at n = 5000;
    # the discrepancy is the slow (log n)^(-1/2) convergence of the normal
    # limit, not an implementation artifact, and is left as a visible failure
    _run(11)


def test_criterion_12_large_deviations():
    _run(12)


def test_criterion_13_fixed_dimension_trend():
    _run(13)
