"""The LP-free partial-matching EMD for 1-D signatures.

:func:`~repro.emd.one_dimensional.partial_emd_1d` must give the value of
the paper's transportation LP (Eqs. 7–12) under ``|x − y|`` for any two
masses.  It is pinned here to the per-pair HiGHS LP, bit-for-bit
symmetry and atom-order invariance, and metamorphic relations; the
unit-mass assignment oracle and the engine's routing are in
``test_stacked_router.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emd import emd, partial_emd_1d, solve_emd_linprog, wasserstein_1d
from repro.emd.ground_distance import cross_distance_matrix
from repro.exceptions import ValidationError
from repro.signatures import Signature

PARITY_TOL = 1e-12


def lp_emd(xa, wa, xb, wb):
    """The per-pair HiGHS LP on the 1-D cost matrix ``|x − y|``."""
    cost = cross_distance_matrix(
        np.asarray(xa, float)[:, None], np.asarray(xb, float)[:, None], "euclidean"
    )
    plan = solve_emd_linprog(cost, np.asarray(wa, float), np.asarray(wb, float))
    return plan.cost / plan.total_flow


def random_case(rng, *, ties=False, zero_weights=False, scale=1.0, light=1.0):
    """One random pair: sizes 1–8, fractional masses, side ``a`` times ``light``."""
    size_a, size_b = (int(k) for k in rng.integers(1, 9, size=2))
    if ties:  # a shared integer grid: a- and b-atoms tie, and so do atoms of one side
        xa = rng.integers(-3, 4, size_a).astype(float)
        xb = rng.integers(-3, 4, size_b).astype(float)
    else:
        xa, xb = rng.normal(size=size_a), rng.normal(size=size_b)
    wa = rng.uniform(0.1, 3.0, size_a) * light
    wb = rng.uniform(0.1, 3.0, size_b)
    if zero_weights:
        wa[rng.integers(size_a)] = 0.0
        wb[rng.integers(size_b)] = 0.0
        if wa.sum() == 0:
            wa[0] = light
        if wb.sum() == 0:
            wb[0] = 1.0
    return xa * scale, wa, xb * scale, wb


CASES = {
    "plain": {},
    "ties": {"ties": True},
    "zero_weights": {"zero_weights": True},
    "ties_and_zero_weights": {"ties": True, "zero_weights": True},
    "light_a": {"light": 1e-3},
    "light_a_with_ties": {"light": 1e-3, "ties": True},
    "scale_1e6": {"scale": 1e6},
    "scale_1e6_light_ties": {"scale": 1e6, "light": 1e-3, "ties": True},
}


class TestLinprogParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_pair_lp(self, case):
        rng = np.random.default_rng(sorted(CASES).index(case))
        for _ in range(150):
            xa, wa, xb, wb = random_case(rng, **CASES[case])
            expected = lp_emd(xa, wa, xb, wb)
            # Distances carry the positions' unit: compare on their scale.
            scale = max(1.0, float(np.abs(np.concatenate([xa, xb])).max()))
            assert abs(partial_emd_1d(xa, wa, xb, wb) - expected) <= PARITY_TOL * scale

    def test_one_atom_signatures(self):
        # One atom each: the whole lighter mass moves the full gap.
        assert partial_emd_1d([0.0], [2.0], [3.0], [5.0]) == 3.0
        assert partial_emd_1d([-1.5], [7.0], [2.5], [0.25]) == 4.0
        rng = np.random.default_rng(40)
        for _ in range(50):
            xa, wa, xb, wb = random_case(rng)
            expected = lp_emd(xa[:1], wa[:1] + 0.1, xb, wb)
            assert partial_emd_1d(xa[:1], wa[:1] + 0.1, xb, wb) == pytest.approx(
                expected, rel=0, abs=PARITY_TOL
            )

    def test_hand_solved_partial_matching(self):
        # Mass 1 at 0 and 2 against 1 at 1 and 3 at 5: two units move,
        # 0 -> 1 (cost 1) and 2 -> 5 (cost 3), so the EMD is 4 / 2.
        assert partial_emd_1d([0.0, 2.0], [1.0, 1.0], [1.0, 5.0], [1.0, 3.0]) == 2.0
        # The lighter side is matched to its nearest mass: nothing moves far.
        assert partial_emd_1d([0.0], [1.0], [0.0, 100.0], [5.0, 5.0]) == 0.0

    def test_equal_masses_match_the_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            xa, wa, xb, wb = random_case(rng)
            wb = wb * (wa.sum() / wb.sum())
            assert partial_emd_1d(xa, wa, xb, wb) == pytest.approx(
                wasserstein_1d(xa, wa, xb, wb), rel=0, abs=PARITY_TOL
            )

    def test_emd_auto_takes_it_for_unequal_1d_masses(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            xa, wa, xb, wb = random_case(rng)
            sig_a, sig_b = Signature(xa[:, None], wa), Signature(xb[:, None], wb)
            result = emd(sig_a, sig_b)
            assert result == partial_emd_1d(xa, wa, xb, wb)
            assert result == pytest.approx(
                emd(sig_a, sig_b, backend="linprog"), rel=0, abs=PARITY_TOL
            )


class TestExactInvariances:
    def test_swapping_the_arguments_is_bit_identical(self):
        rng = np.random.default_rng(43)
        for case in CASES.values():
            for _ in range(100):
                xa, wa, xb, wb = random_case(rng, **case)
                assert partial_emd_1d(xa, wa, xb, wb) == partial_emd_1d(xb, wb, xa, wa)

    def test_equal_totals_are_symmetric_too(self):
        # With exactly equal totals neither side is lighter; the tie is
        # broken on the atoms, not on the argument order.
        rng = np.random.default_rng(44)
        for _ in range(100):
            xa, xb = rng.normal(size=5), rng.normal(size=3)
            wa = np.array([1.0, 2.0, 0.5, 0.25, 0.25])
            wb = np.array([2.0, 1.0, 1.0])
            assert partial_emd_1d(xa, wa, xb, wb) == partial_emd_1d(xb, wb, xa, wa)

    def test_atom_order_does_not_matter(self):
        rng = np.random.default_rng(45)
        for case in CASES.values():
            xa, wa, xb, wb = random_case(rng, **case)
            pa, pb = rng.permutation(xa.size), rng.permutation(xb.size)
            assert partial_emd_1d(xa[pa], wa[pa], xb[pb], wb[pb]) == partial_emd_1d(
                xa, wa, xb, wb
            )

    @pytest.mark.parametrize("factor", [2.0, 0.5, 1024.0])
    def test_power_of_two_scalings_are_exact(self, factor):
        # Multiplying by a power of two rounds nothing, so the sweep runs
        # on exactly scaled numbers.
        rng = np.random.default_rng(46)
        for case in CASES.values():
            xa, wa, xb, wb = random_case(rng, **case)
            base = partial_emd_1d(xa, wa, xb, wb)
            assert partial_emd_1d(xa * factor, wa, xb * factor, wb) == base * factor
            assert partial_emd_1d(xa, wa * factor, xb, wb * factor) == base


class TestMetamorphic:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_translation_mirroring_and_scaling(self, case):
        rng = np.random.default_rng(100 + sorted(CASES).index(case))
        for _ in range(40):
            xa, wa, xb, wb = random_case(rng, **CASES[case])
            base = partial_emd_1d(xa, wa, xb, wb)
            scale = max(1.0, float(np.abs(np.concatenate([xa, xb])).max()))
            tol = 1e-12 * scale
            shift = float(rng.uniform(-5.0, 5.0)) * scale
            # Translated positions round on their own, larger, scale.
            moved = max(1.0, float(np.abs(np.concatenate([xa, xb]) + shift).max()))
            translated = partial_emd_1d(xa + shift, wa, xb + shift, wb)
            assert abs(translated - base) <= 1e-12 * max(scale, moved)
            assert abs(partial_emd_1d(-xa, wa, -xb, wb) - base) <= tol
            stretch = float(rng.uniform(0.1, 10.0))
            stretched = partial_emd_1d(xa * stretch, wa, xb * stretch, wb)
            assert abs(stretched - base * stretch) <= tol * stretch
            mass = float(rng.uniform(1e-3, 1e3))
            assert abs(partial_emd_1d(xa, wa * mass, xb, wb * mass) - base) <= tol

    def test_a_far_heavy_atom_nobody_uses_changes_nothing(self):
        # A b-atom of mass 1e9 far to the left is never matched, so the
        # distance must not move; it also must not cost the result its
        # precision: the sweep's positions must round on the scale of
        # the lighter mass, not of the heavier one (a sweep that kept
        # B-sized offsets was off by ~3e-7 here).
        rng = np.random.default_rng(48)
        for _ in range(200):
            xa, wa, xb, wb = random_case(rng)
            wb *= wa.sum() / wb.sum() * rng.uniform(1.0, 2.0)
            base = partial_emd_1d(xa, wa, xb, wb)
            padded = partial_emd_1d(xa, wa, np.append(xb, -1e3), np.append(wb, 1e9))
            assert abs(padded - base) <= PARITY_TOL

    def test_extra_mass_on_the_heavier_side_never_costs_more(self):
        # More candidate mass for the lighter side to match can only help.
        rng = np.random.default_rng(47)
        for _ in range(100):
            xa, wa, xb, wb = random_case(rng, light=0.1)
            more = np.append(wb, 1.0)
            grown = partial_emd_1d(xa, wa, np.append(xb, rng.normal()), more)
            assert grown <= partial_emd_1d(xa, wa, xb, wb) + PARITY_TOL


class TestValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ([0.0, 1.0], [1.0], [0.0], [1.0]),  # shape mismatch
            ([0.0], [-1.0], [0.0], [1.0]),  # negative mass
            ([0.0], [0.0], [0.0], [1.0]),  # no mass
            ([np.nan], [1.0], [0.0], [1.0]),  # non-finite position
            ([], [], [0.0], [1.0]),  # empty
        ],
    )
    def test_bad_inputs_rejected(self, args):
        with pytest.raises((ValidationError, ValueError)):
            partial_emd_1d(*args)
