"""platelab: a numerical laboratory for thin-plate brittle fracture energies.

Modules
-------
elasticity      isotropic tensors, the reduced plate tensor, the thin-film strain scaling
geometry        shifted grids, crack surfaces, bad-cube classification
interpolation   lattice sampling, hat-kernel interpolants, crack-aware strains
kirchhoff_love  reduced plate states, 3D lifts, structure verification
energy          rescaled, limit and penalized energies on the unit-thickness film
minimize        alternating minimization (elastic solves + crack activation)
lab             experiment drivers and CSV plumbing
cli             command-line interface
"""

from .elasticity import (LameParams, apply_C, phi_rho, quadratic_form_C,
                         quadratic_form_C0, reduced_min_oracle, rescale_strain,
                         validate_lame)
from .geometry import (CrackSurface, CubeClassification, ShiftedGrid,
                       axis_plane_crack, bad_cube_boundary_measure,
                       classify_cubes, direction_set, discrete_jump_energy,
                       in_half_neighborhood, projection_measure,
                       segment_hits_crack)
from .interpolation import (ApproximantField, DirectionalStrainField,
                            SampledField, build_approximant,
                            directional_strain, interpolate, sample,
                            strain_bound_check, structure_preservation_check)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, cell_strains,
                             extract_psi, jump_decomposition_check, kl_average,
                             kl_lift, kl_verify, reduced_gradient)
from .energy import (BoundaryDatum, EnergyBreakdown, boundary_penalty,
                     compactness_check, limit_energy, penalized_energies,
                     rescaled_energy, stretch_datum)
from .minimize import (CrackIndicator, SolverConfig, alternate_minimize,
                       elastic_solve, empty_cracks, minimize_limit)
from .lab import (ExperimentConfig, approximate_experiment,
                  classify_experiment, jump_energy_experiment, load_config,
                  membrane_crack_state, minima_sweep, projection_experiment,
                  recovery_sequence, recovery_sweep, write_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
