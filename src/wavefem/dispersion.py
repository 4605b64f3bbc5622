"""Normal-mode analysis of the semi-discrete 1D wave system.

On a uniform periodic grid the semi-discrete equations admit plane-wave
solutions with nondimensional wavenumber ``phi`` (k dx) and frequency
``w`` (omega dx). Inserting the plane-wave ansatz into the four stencil
equations (two velocity equations of a cell; the scalar equations at a
grid point and at a midpoint) yields a 4x4 complex symbol matrix in the
amplitudes (u+, u-, h_vertex, h_mid); its determinant vanishes on the
dispersion curves.

The determinant factors into two branches,

    w = 2 * sqrt((26 + 4 cos(phi) +/- sqrt(474 + 448 cos(phi)
                  - 22 cos(2 phi))) / (6 - 2 cos(phi))),

separated by a spectral gap. The null vector at a root gives the mode
shape; |u+ - u-| of the unit-norm mode measures the velocity jump at the
grid points.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .mesh import _format_rows

__all__ = [
    "DispersionSample",
    "GapSummary",
    "AnalysisError",
    "DegenerateModeError",
    "symbol_matrix",
    "dispersion_closed_form",
    "mode_discontinuity",
    "dispersion_sweep",
    "sweep_to_csv",
]


class AnalysisError(RuntimeError):
    """A dispersion-sweep invariant failed (implementation bug indicator)."""


class DegenerateModeError(RuntimeError):
    """The symbol matrix has a null space of dimension != 1 at a root."""


def symbol_matrix(phi: float, w: float) -> np.ndarray:
    """4x4 plane-wave symbol of the semi-discrete system.

    Rows: the two velocity equations of a cell, the scalar equation at a
    grid point, the scalar equation at a midpoint (scaled by 6, 6, 30, 30).
    Columns: amplitudes (u+, u-, h_vertex, h_mid).
    """
    e = np.exp(1j * phi)
    eh = np.exp(0.5j * phi)
    c = np.cos(phi)
    ch = np.cos(phi / 2.0)
    return np.array([
        [-2j * w, -1j * w * e, -5.0 + e, 4.0 * eh],
        [-1j * w, -2j * w * e, -1.0 + 5.0 * e, -4.0 * eh],
        [25.0 - 5.0 / e, -25.0 + 5.0 * e, -1j * w * (8.0 - 2.0 * c), -4j * w * ch],
        [-20.0, 20.0 * e, -2j * w * (1.0 + e), -16j * w * eh],
    ])


def dispersion_closed_form(phi: float) -> tuple[float, float]:
    """Positive frequencies (w_lower, w_upper) of the two branches at ``phi``.

    The lower branch takes the inner minus sign, the upper the plus sign.
    Both radicands are nonnegative on (0, 2 pi); this is asserted
    defensively.
    """
    c = np.cos(phi)
    inner = 474.0 + 448.0 * c - 22.0 * np.cos(2.0 * phi)
    assert inner >= 0.0, f"negative inner radicand at phi={phi}"
    root = np.sqrt(inner)
    denom = 6.0 - 2.0 * c
    lower_sq = (26.0 + 4.0 * c - root) / denom
    upper_sq = (26.0 + 4.0 * c + root) / denom
    assert lower_sq >= -1e-12 and upper_sq >= 0.0, f"negative branch at phi={phi}"
    return float(2.0 * np.sqrt(max(lower_sq, 0.0))), float(2.0 * np.sqrt(upper_sq))


def _null_mode(phi: float, w: float) -> np.ndarray:
    """Unit-norm null vector of the symbol matrix at a dispersion root.

    Extracted as the singular direction of the smallest singular value,
    which stays well-conditioned near degenerate wavenumbers.
    """
    m = symbol_matrix(phi, w)
    _, s, vh = np.linalg.svd(m)
    if s[2] < 1e-6 * max(s[0], 1.0):
        raise DegenerateModeError(
            f"symbol matrix null space has dimension > 1 at phi={phi}")
    if s[3] > 1e-6 * max(s[0], 1.0):
        raise DegenerateModeError(f"w={w} is not a dispersion root at phi={phi}")
    return vh[3].conj()


def mode_discontinuity(phi: float, branch: str) -> float:
    """Velocity jump |u+ - u-| of the unit-norm mode on a branch at ``phi``."""
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    lower, upper = dispersion_closed_form(phi)
    w = lower if branch == "lower" else upper
    v = _null_mode(phi, w)
    return float(np.abs(v[0] - v[1]))


@dataclass(frozen=True)
class DispersionSample:
    phi: float
    w_lower: float
    w_upper: float
    disc_lower: float
    disc_upper: float


@dataclass(frozen=True)
class GapSummary:
    max_w_lower: float
    min_w_upper: float

    @property
    def gap(self) -> float:
        return self.min_w_upper - self.max_w_lower


def dispersion_sweep(n_samples: int):
    """Sample both branches on a uniform grid of ``n_samples`` wavenumbers
    in (0, pi] and summarize the spectral gap.

    Raises :class:`AnalysisError` if the lower branch is not strictly
    increasing or if the gap closes; either would mean a broken
    implementation, not a property of the discretization.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    phis = np.pi * np.arange(1, n_samples + 1) / n_samples
    samples = []
    for phi in phis:
        lower, upper = dispersion_closed_form(phi)
        samples.append(DispersionSample(
            phi=float(phi), w_lower=lower, w_upper=upper,
            disc_lower=mode_discontinuity(phi, "lower"),
            disc_upper=mode_discontinuity(phi, "upper")))
    lowers = np.array([s.w_lower for s in samples])
    uppers = np.array([s.w_upper for s in samples])
    if n_samples > 2 and not np.all(np.diff(lowers) > 0.0):
        raise AnalysisError("lower dispersion branch is not monotone on (0, pi]")
    summary = GapSummary(float(lowers.max()), float(uppers.min()))
    if summary.gap <= 0.0:
        raise AnalysisError("spectral gap is not positive")
    return samples, summary


def sweep_to_csv(samples, path):
    table = np.array([astuple(s) for s in samples])
    with open(path, "w", newline="") as fh:
        fh.write("phi,w_lower,w_upper,disc_lower,disc_upper\r\n"
                 + _format_rows("%r,%r,%r,%r,%r\r\n", table))
