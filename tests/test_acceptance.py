"""Acceptance suite: one test per criterion, one [PASS] line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight shared
artifacts (sup estimates up to N=512, the full catalog verification) are
module-scoped fixtures so the wall time stays in the minutes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from relconv.catalog import load_catalog, verify_catalog
from relconv.cayley import (
    AbelianGroup,
    ConnectionSet,
    VertexSet,
    edge_boundary,
)
from relconv.cli import main as cli_main
from relconv.convexity import (
    check_almost_convex_anchored,
    check_mean_inequality,
    check_sharpened,
    make_tent,
    sample_concave,
)
from relconv.extremal import (
    branch_point,
    estimate_sup,
    majorant,
    majorant_grid,
    majorant_values,
    parabola,
    parabola_grid,
)
from relconv.grid import GridFunction
from relconv.isoperimetry import profile, six_cycle_counterexample

from conftest import min_boundary_unrestricted

SUP_SIZES = (64, 128, 256, 512)


@pytest.fixture(scope="module")
def sup_estimates():
    return {n: estimate_sup(1, n, tol=1e-9) for n in SUP_SIZES}


@pytest.fixture(scope="module")
def catalog_rows():
    return [row for report in verify_catalog(load_catalog()) for row in report.rows()]


def test_a1_majorant_values_at_sixths():
    got = majorant(Fraction(1, 6))
    assert abs(got.value - math.sqrt(2.0 / 3.0)) < 1e-12
    for n in (2, 3, 4):
        assert abs(majorant(Fraction(n, 6)).value - 1.0) < 1e-12
    print("\n[PASS] A1 majorant at n/6: sqrt(2/3) and 1, within 1e-12")


def test_a2_branch_points_exact_and_continuous():
    assert branch_point(0) == Fraction(1, 2)
    assert branch_point(1) == Fraction(1, 4)
    worst = 0.0
    for k in range(1, 33):
        b = float(branch_point(k))
        gap = abs(k * b ** (1 - 1 / k) - (k + 1) * b ** (1 - 1 / (k + 1)))
        worst = max(worst, gap)
    assert worst < 1e-12
    print(f"\n[PASS] A2 branch points exact; adjacent branches agree (worst gap {worst:.2e})")


def test_a3_majorant_grid_membership_scan():
    for n in SUP_SIZES:
        violations = check_almost_convex_anchored(majorant_grid(n))
        assert not violations, f"N={n}: {violations[:3]}"
        assert violations.max_slack < 1e-9
    print("[PASS] A3 anchored-class scan of the majorant grid clean at N=64,128,256,512")


def test_a4_sup_estimate_dominates_and_converges(sup_estimates):
    fine = np.arange(2**16 + 1) / 2**16
    reference = majorant_values(fine)
    deviations = []
    for n in SUP_SIZES:
        g = sup_estimates[n].floats()
        on_grid = majorant_values(np.arange(n + 1) / n)
        assert np.min(g - on_grid) >= -1e-9  # pointwise dominance on the grid
        assert np.max(np.abs(g - on_grid)) <= 0.05
        interp = np.interp(fine, np.arange(n + 1) / n, g)
        deviations.append(float(np.max(np.abs(interp - reference))))
    assert deviations[-1] <= 0.05
    assert all(b <= a + 1e-15 for a, b in zip(deviations, deviations[1:]))
    print(f"[PASS] A4 sup estimate >= majorant, sup-norm gaps {['%.4f' % d for d in deviations]} non-increasing")


def test_a5_mean_inequality_scans():
    assert not check_mean_inequality(majorant_grid(256), 2)
    for m in (3, 4, 5, 8):
        assert not check_mean_inequality(majorant_grid(240), m, samples=100_000, seed=m)
    print("[PASS] A5 mean-inequality: m=2 exhaustive at N=256; m=3,4,5,8 at 1e5 samples, N=240")


def test_a6_catalog_bound_verification(catalog_rows):
    by_key = {(r["group"], r["S"], r["n"]): r for r in catalog_rows}
    for d in (2, 3, 4):
        group = AbelianGroup([2] * d)
        key = (group.describe(), ConnectionSet.basis(group).describe(), 2 ** (d - 1))
        assert by_key[key]["ratio"] == 1.0
    assert by_key[("Z3xZ3", "(1,0),(0,1)", 3)]["ratio"] == 1.0

    # every abelian row meets the bound, every reported witness reproduces its
    # minimum, every profile is symmetric
    fixtures = {(e.group.describe(), e.s.describe()): (e.group, e.s)
                for e in load_catalog() if e.is_cayley}
    for r in catalog_rows:
        pair = fixtures.get((r["group"], r["S"]))
        if pair is None:
            continue
        group, s = pair
        assert r["min_boundary"] >= r["bound"] - 1e-9
        witness = VertexSet(int(r["witness"], 16), group.order)
        assert witness.bits.bit_count() == r["n"]
        assert edge_boundary(group, s, witness) == r["min_boundary"]
        mirror = by_key[(r["group"], r["S"], group.order - r["n"])]
        assert mirror["min_boundary"] == r["min_boundary"]

    pairs = {(r["group"], r["S"]) for r in catalog_rows}
    print(f"[PASS] A6 bound holds on all {len(catalog_rows)} catalog rows "
          f"({len(pairs)} fixtures); tight homocyclic ratios == 1.0; witnesses and symmetry verified")


def test_a7_six_cycle_counterexample(capsys):
    boundary, bound = six_cycle_counterexample()
    assert boundary == 2
    assert abs(bound - 3 * math.sqrt(2.0 / 3.0)) < 1e-12
    assert boundary < bound
    assert cli_main(["counterexample-s3"]) == 0
    capsys.readouterr()
    print(f"[PASS] A7 six-cycle fixture: boundary 2 < bound {bound:.6f}, CLI exit 0")


def test_a8_sharpened_inequality():
    assert not check_sharpened(majorant_grid(128))
    cap = parabola_grid(128)
    for seed in range(100):
        assert not check_sharpened(sample_concave(128, seed, cap=cap))
    f = majorant_grid(128).floats()
    b = np.arange(1, 128)
    diag_slack = np.max(np.abs(majorant_values((128 - b) / 128) - f[1:128]))
    assert diag_slack < 1e-9
    print(f"[PASS] A8 sharpened inequality clean on majorant + 100 samples; "
          f"full-spread slack {diag_slack:.2e}")


def test_a9_parabola_criterion_both_directions():
    N = 128
    cap = parabola_grid(N)
    for seed in range(1000):
        f = sample_concave(N, seed, cap=cap)
        assert not check_almost_convex_anchored(f), f"seed {seed}"
    for x0 in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
        for eps in (0.01, 0.1):
            tent = make_tent(x0, float(parabola(x0)) + eps, N)
            violations = check_almost_convex_anchored(tent)
            assert violations
            i0 = int(x0 * N)
            assert any((v.a, v.b, v.c) == (0, i0, min(2 * i0, N)) for v in violations), (x0, eps)
    print("[PASS] A9 1000 under-parabola samples are members; 8 above-parabola tents all fail "
          "with the doubling triple present")


def test_a10_oracle_equivalences():
    # canonicalized search vs unrestricted exhaustive search
    small = [e for e in load_catalog() if e.is_cayley and e.group.order <= 12]
    assert small
    checked = 0
    for entry in small:
        entries = profile(entry.group, entry.s).entries
        for n in range(entry.group.order + 1):
            lhs = entries[n].min_boundary
            rhs, _ = min_boundary_unrestricted(entry.group, entry.s, n)
            assert lhs == rhs, (entry.name, n)
            checked += 1

    # branch-guided evaluation vs brute-force minimum over k <= 200
    xs = np.linspace(0.0, 1.0, 10_001)
    vec = majorant_values(xs)
    d = np.minimum(xs, 1 - xs)
    brute = np.full_like(xs, np.inf)
    for k in range(1, 201):
        with np.errstate(divide="ignore"):
            term = k * d ** (1.0 - 1.0 / k)
        brute = np.minimum(brute, np.where(d > 0, term, 0.0))
    worst = float(np.max(np.abs(vec - brute)))
    assert worst < 1e-12
    print(f"[PASS] A10 oracles agree: {checked} profile cells on |G|<=12 fixtures, "
          f"majorant vs brute force (worst {worst:.2e})")
