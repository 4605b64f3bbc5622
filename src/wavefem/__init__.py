"""Mixed discontinuous/continuous finite elements for the first-order wave
system: global operator assembly in 1/2/3 dimensions, discrete-Laplacian
spectra, 1D dispersion analysis, and a symplectic time-domain solver."""

__version__ = "0.1.0"

from .mesh import (BcSpec, Mesh, MeshFormatError, generate_cube_mesh,
                   generate_interval_mesh, generate_square_mesh, read_mesh,
                   write_tetgen_mesh, write_triangle_mesh)
from .elements import (DofMap, QuadratureRule, ReferenceElement,
                       build_dof_maps, quadrature, reference_element)
from .assembly import AssembledOperators, assemble
from .spectral import (Spectrum, cell_lambda_bound, laplacian_pencil,
                       laplacian_spectrum, max_eigenvalue,
                       null_space_dimension, spurious_mode_report)
from .dispersion import (DispersionSample, dispersion_closed_form,
                         dispersion_sweep, mode_discontinuity,
                         semidiscrete_consistency_check, symbol_matrix)
from .dynamics import (ConfigurationError, FieldState, SimulationConfig,
                       energy, interpolate_state, simulate,
                       stable_dt_estimate, verlet_step)
