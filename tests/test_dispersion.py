import numpy as np
import pytest

from wavefem.dispersion import (AnalysisError, dispersion_closed_form,
                                dispersion_sweep, mode_discontinuity,
                                semidiscrete_consistency_check, sweep_to_csv,
                                symbol_matrix)

W_LOWER_PI = 2.0 * np.sqrt(2.5)
W_UPPER_PI = 2.0 * np.sqrt(3.0)
W_UPPER_0 = 2.0 * np.sqrt(15.0)


def test_symbol_matrix_entries():
    phi, w = 0.7, 1.3
    m = symbol_matrix(phi, w)
    e = np.exp(1j * phi)
    assert m[0, 0] == -2j * w
    assert m[0, 2] == -5.0 + e
    assert m[3, 0] == -20.0
    assert m[1, 3] == -4.0 * np.exp(0.5j * phi)


def test_symbol_matrix_at_zero():
    m = symbol_matrix(0.0, 0.0)
    assert np.allclose(m[2], [20.0, -20.0, 0.0, 0.0])


def test_symbol_conjugate_symmetry():
    phi, w = 1.1, 2.3
    m = symbol_matrix(phi, w)
    m_conj = symbol_matrix(-phi, -w)
    assert np.allclose(m_conj, np.conj(m), atol=1e-14)


def test_closed_form_endpoints():
    lower, upper = dispersion_closed_form(np.pi)
    assert abs(lower - W_LOWER_PI) <= 1e-12
    assert abs(upper - W_UPPER_PI) <= 1e-12
    _, upper0 = dispersion_closed_form(1e-12)
    assert abs(upper0 - W_UPPER_0) <= 1e-9


def test_closed_form_quarter():
    lower, _ = dispersion_closed_form(np.pi / 2.0)
    assert abs(lower - 1.5766932799755133) <= 1e-12  # vs exact pi/2 = 1.5708


def test_lower_branch_vanishes_at_origin():
    lower, _ = dispersion_closed_form(1e-8)
    assert lower <= 2e-8


def test_branches_zero_the_determinant():
    phis = np.pi * np.arange(1, 201) / 200.0
    for phi in phis:
        for w in dispersion_closed_form(phi):
            m = symbol_matrix(phi, w)
            scale = np.abs(m).sum(axis=1).max()
            assert abs(np.linalg.det(m)) <= 1e-9 * scale ** 4


def test_roots_come_in_pairs():
    # time-reversal symmetry: -w is a root whenever w is
    for phi in (0.3, 1.7, 2.9):
        for w in dispersion_closed_form(phi):
            m = symbol_matrix(phi, -w)
            scale = np.abs(m).sum(axis=1).max()
            assert abs(np.linalg.det(m)) <= 1e-9 * scale ** 4


def test_discontinuity_ordering():
    for phi in np.pi * np.arange(1, 41) / 40.0:
        assert mode_discontinuity(phi, "lower") < mode_discontinuity(phi, "upper")


def test_discontinuity_limits():
    # the slow branch becomes continuous at long wavelengths
    assert mode_discontinuity(1e-3, "lower") <= 1e-2
    assert mode_discontinuity(1e-3, "lower") < mode_discontinuity(0.5, "lower") * 1e-1 + 1e-2


def test_fastest_mode_out_of_phase():
    # at phi = pi the fast mode has u+ = -u-, so the jump is 2|u+|
    from wavefem.dispersion import _null_mode

    v = _null_mode(np.pi, W_UPPER_PI)
    assert abs(v[0] + v[1]) <= 1e-6
    disc = mode_discontinuity(np.pi, "upper")
    assert abs(disc - 2.0 * abs(v[0])) <= 1e-12
    assert abs(disc - 2.0 / np.sqrt(5.0)) <= 1e-12


def test_mode_discontinuity_bad_branch():
    with pytest.raises(ValueError):
        mode_discontinuity(1.0, "middle")


def test_sweep_gap_and_monotonicity():
    samples, summary = dispersion_sweep(200)
    assert len(samples) == 200
    assert abs(summary.max_w_lower - W_LOWER_PI) <= 1e-12
    assert abs(summary.min_w_upper - W_UPPER_PI) <= 1e-12
    assert abs(summary.gap - (W_UPPER_PI - W_LOWER_PI)) <= 1e-12
    lowers = [s.w_lower for s in samples]
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    assert all(s.w_lower < s.w_upper for s in samples)
    assert all(s.disc_lower < s.disc_upper for s in samples)


def test_sweep_two_samples():
    samples, summary = dispersion_sweep(2)
    assert len(samples) == 2
    assert summary.gap > 0


def test_sweep_rejects_bad_count():
    with pytest.raises(ValueError):
        dispersion_sweep(1)


def test_lower_branch_accuracy():
    # long waves follow the exact relation w = phi to better than 0.5%
    for phi in np.linspace(0.01, np.pi / 4.0, 25):
        lower, _ = dispersion_closed_form(phi)
        assert abs(lower - phi) / phi <= 5e-3


def test_upper_branch_never_returns_to_zero():
    samples, _ = dispersion_sweep(100)
    assert min(s.w_upper for s in samples) >= W_UPPER_PI - 1e-12


def test_csv_export(tmp_path):
    samples, _ = dispersion_sweep(10)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(samples, str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "phi,w_lower,w_upper,disc_lower,disc_upper"
    assert len(rows) == 11
    last = [float(t) for t in rows[-1].split(",")]
    assert abs(last[0] - np.pi) <= 1e-15
    assert abs(last[1] - W_LOWER_PI) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 8, 16, 17, 32])
def test_assembled_system_matches_closed_form(n):
    report = semidiscrete_consistency_check(n)
    assert report.max_error <= 1e-8
    assert not report.mismatches


def test_consistency_check_rejects_tiny_mesh():
    with pytest.raises(ValueError):
        semidiscrete_consistency_check(2)
