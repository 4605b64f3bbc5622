from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from wavefem import cli, dispersion
from wavefem.assembly import assemble
from wavefem.dispersion import (AnalysisError, dispersion_branches, dispersion_closed_form,
                                dispersion_sweep)
from wavefem.elements import build_dof_maps
from wavefem.mesh import BcSpec, generate_interval_mesh
from wavefem.spectral import NULL_TOLERANCE, laplacian_pencil

from dispersion_reference import null_mode, symbol_matrix

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
    # w_lower ~ phi at small phi: relative agreement with the Bloch sweep,
    # which the cancellation in 26 + 4c - root lost (8.4e-4 off at 1e-6,
    # 0 at 1e-8)
    phis = [1e-2, 1e-4, 1e-6, 1e-8]
    w, _ = dispersion_branches(phis)
    for phi, ref in zip(phis, w[:, 0]):
        assert abs(dispersion_closed_form(phi)[0] - ref) <= 1e-14 * ref, phi


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


def test_closed_form_rejects_non_finite():
    for phi in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            dispersion_closed_form(phi)


def test_discontinuity_ordering():
    _, disc = dispersion_branches(np.pi * np.arange(1, 41) / 40.0)
    assert np.all(disc[:, 0] < disc[:, 1])


def test_discontinuity_limits():
    # the slow branch becomes continuous at long wavelengths
    _, disc = dispersion_branches([1e-3, 0.5])
    assert disc[0, 0] <= 1e-2
    assert disc[0, 0] < disc[1, 0] * 1e-1 + 1e-2


def test_fastest_mode_out_of_phase():
    # at phi = pi the fast mode has u+ = -u-, so the jump is 2|u+|
    v = null_mode(np.pi, W_UPPER_PI)
    assert abs(v[0] + v[1]) <= 1e-6
    disc = dispersion_branches([np.pi])[1][0, 1]
    assert abs(disc - 2.0 * abs(v[0])) <= 1e-12
    assert abs(disc - 2.0 / np.sqrt(5.0)) <= 1e-12


def test_branches_reject_wavenumbers_outside_half_period():
    for phi in (0.0, -0.5, np.pi + 1e-9, np.nan):
        with pytest.raises(ValueError):
            dispersion_branches([0.5, phi])


@pytest.mark.parametrize("n", [2, 3, 4, 100, 200, 1000])
def test_sweep_matches_symbol_reference(n):
    # both branches against the closed form, both jumps against the null
    # vector of the hand-derived symbol
    samples = dispersion_sweep(n)
    ref = []
    for phi in samples[:, 0]:
        w = dispersion_closed_form(phi)
        modes = [null_mode(phi, branch) for branch in w]
        ref.append([*w, *(abs(v[0] - v[1]) for v in modes)])
    assert np.abs(samples[:, 1:] - np.array(ref)).max() <= 1e-12


def test_sweep_gap_and_monotonicity():
    samples = dispersion_sweep(200)
    assert samples.shape == (200, 5)
    _, w_lower, w_upper, disc_lower, disc_upper = samples.T
    assert abs(w_lower.max() - W_LOWER_PI) <= 1e-12
    assert abs(w_upper.min() - W_UPPER_PI) <= 1e-12
    assert abs((w_upper.min() - w_lower.max()) - (W_UPPER_PI - W_LOWER_PI)) <= 1e-12
    assert (np.diff(w_lower) > 0).all()
    assert (w_lower < w_upper).all()
    assert (disc_lower < disc_upper).all()


def test_sweep_two_samples():
    samples = dispersion_sweep(2)
    assert len(samples) == 2
    assert samples[:, 2].min() - samples[:, 1].max() > 0


def test_sweep_rejects_bad_count():
    with pytest.raises(ValueError):
        dispersion_sweep(1)


@pytest.mark.parametrize("lower,upper,match", [
    (lambda phis: 2.0 - phis, lambda phis: 10.0 + 0.0 * phis,
     r"lower dispersion branch is not monotone on \(0, pi\]"),
    (lambda phis: 1.0 + phis, lambda phis: phis, "spectral gap is not positive")],
    ids=["falling", "closed-gap"])
def test_sweep_invariants_raise(monkeypatch, lower, upper, match):
    # a broken implementation, not the discretization: the sweep checks
    # its branches and raises AnalysisError
    def branches(phis):
        return np.column_stack([lower(phis), upper(phis)]), np.zeros((len(phis), 2))

    monkeypatch.setattr(dispersion, "dispersion_branches", branches)
    with pytest.raises(AnalysisError, match=match):
        dispersion_sweep(8)


def test_lower_branch_accuracy():
    # long waves follow the exact relation w = phi to better than 0.5%
    for phi in np.linspace(0.01, np.pi / 4.0, 25):
        lower, _ = dispersion_closed_form(phi)
        assert abs(lower - phi) / phi <= 5e-3


def test_upper_branch_never_returns_to_zero():
    samples = dispersion_sweep(100)
    assert samples[:, 2].min() >= W_UPPER_PI - 1e-12


def test_csv_export(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert cli.main(["dispersion", "--samples", "10", "--out", str(path)]) == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "phi,w_lower,w_upper,disc_lower,disc_upper"
    assert len(rows) == 11
    last = [float(t) for t in rows[-1].split(",")]
    assert abs(last[0] - np.pi) <= 1e-15
    assert abs(last[1] - W_LOWER_PI) <= 1e-12


@dataclass
class ConsistencyReport:
    n_elements: int
    dx: float
    max_error: float
    mismatches: list  # (phi, branch frequency, nearest assembled frequency)


def semidiscrete_consistency_check(n_elements: int, tol: float = 1e-8) -> ConsistencyReport:
    """Cross-check the generic assembler against the closed-form branches.

    Assembles the periodic 1D system, solves the generalized eigenproblem
    of the resulting discrete Laplacian, and verifies that for every
    resolvable wavenumber both branch frequencies appear among the
    assembled eigenfrequencies (in w = omega dx units).
    """
    if n_elements < 3:
        raise ValueError("n_elements must be >= 3")
    mesh = generate_interval_mesh(n_elements, 1.0, periodic=True)
    dx = 1.0 / n_elements
    dofs = build_dof_maps(mesh)
    ops = assemble(dofs, BcSpec())
    A, M = laplacian_pencil(ops)
    lam = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    # The constant mode's eigenvalue is zero up to rounding of either sign;
    # its square root would read as a frequency error of ~1e-7.
    lam[lam < NULL_TOLERANCE * max(1.0, lam[-1])] = 0.0
    w_num = np.sqrt(lam) * dx

    mismatches = []
    max_err = 0.0
    for m in range(n_elements // 2 + 1):
        phi = 2.0 * np.pi * m / n_elements
        if m == 0:
            # constant mode plus the top of the upper branch
            targets = (0.0, 2.0 * np.sqrt(15.0))
        else:
            targets = dispersion_closed_form(phi)
        for target in targets:
            err = float(np.min(np.abs(w_num - target)))
            max_err = max(max_err, err)
            if err > tol * max(1.0, target):
                nearest = float(w_num[np.argmin(np.abs(w_num - target))])
                mismatches.append((phi, target, nearest))
    return ConsistencyReport(n_elements, dx, max_err, mismatches)


@pytest.mark.parametrize("n", [3, 4, 6, 8, 16, 17, 32])
def test_assembled_system_matches_closed_form(n):
    report = semidiscrete_consistency_check(n)
    assert report.max_error <= 1e-8
    assert not report.mismatches


def test_consistency_check_rejects_tiny_mesh():
    with pytest.raises(ValueError):
        semidiscrete_consistency_check(2)
