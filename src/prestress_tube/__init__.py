"""Pre-stressed viscoelastic fibre-reinforced tubes.

Two reference configurations per particle (load-free and stress-free, linked
by the unimodular map F0) make residual stresses a constitutive input:
stresses are evaluated on the stress-free configuration and pulled back.  The
package bundles the constitutive laws (Mooney-Rivlin matrix, exponential fibre
families, isotropic and fibre Maxwell branches), semi-analytical equilibrium
solvers for layered thick-walled tubes, the opened-sector energy scan that
exhibits mutual locking of incompatible layers, and a material-point driver.

Units: mm, kPa, kPa s; forces in kPa mm^2; energies in microjoule (kPa mm^3).
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, NoConvergence, NonPositiveDeterminant,
                     NonPositiveStretch, SingularTensor)
from .materials import (EquilibriumMaterial, HolzapfelFibreParams, MooneyRivlinParams,
                        PreStressField, csf_from_clf, diagonal_energy, diagonal_stress_differences,
                        fibre_directions, fibre_energy, fibre_f, isochoric_kirchhoff)
from .maxwell import (FibreMaxwellParams, IsoMaxwellParams, ViscousState, fibre_evolve,
                      fibre_overstress_scalar, initial_state, iso_evolve)
from .tube import (MaterialLayer, SectorGeometry, SolverReport, TubeGeometry, WallSolution,
                   equilibrium_residuals, glued_radii, newton2, solve_inverse_sf,
                   solve_load_free, wall_stress_profile)
from .opening import EnergyCurve, find_opening_angle, opened_energy
from .driver import LoadProgram, PointTrace, run_point
from . import config, tensor

__all__ = [name for name in dir() if not name.startswith('_')]
