"""Corner singularity analysis for penalized incompressible elasticity and Stokes flow.

Subpackages/modules:
  spectral    eigenvalue equations for the corner exponents
  modes       closed-form singular and dual singular functions
  angular     angular normalizers and identity checks
  geometry    polygons, graded meshes, boundary data
  fem         mixed Taylor-Hood discretization and solvers
  extraction  coefficient functionals and regular-part reconstruction
  expr        analytic expression parsing for config files
  harness     manufactured cases, parameter sweeps, reporting
"""

__version__ = "0.1.0"


class SifLabError(Exception):
    """Base of every named error the package raises."""
