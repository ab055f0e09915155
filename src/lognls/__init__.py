"""Ground states, symmetry breaking and orbital stability for the 1D
logarithmic Schrodinger equation with an attractive delta-prime defect.

Layers:

* :mod:`lognls.corefn` - scalar special functions (the convex splitting
  of s^2 log s^2, its Lipschitz clamping, the Gaussian tail integral,
  the Luxemburg norm).
* :mod:`lognls.stationary` - the standing-wave pair system, its
  pitchfork at gamma = 2, closed-form masses/actions and bounds.
* :mod:`lognls.fields` - staggered-grid fields, energy functionals,
  the constrained action minimizer and orbital distances.
* :mod:`lognls.dynamics` - Strang/Crank-Nicolson time stepping and the
  random-perturbation stability experiment.
* :mod:`lognls.cli` - the ``lognls`` command-line tool.
"""

from .corefn import (
    eval_A,
    eval_B,
    eval_F,
    eval_Gm,
    eval_a,
    eval_am,
    eval_b,
    eval_bm,
    eval_gm,
    gamma_tail,
    gm_phase_rate,
)
from .dynamics import (
    EvolutionAborted,
    EvolutionConfig,
    StabilitySummary,
    TrajectoryRecord,
    evolve,
    linear_step,
    nonlinear_step,
    stability_experiment,
)
from .fields import (
    ConvergenceError,
    Field,
    FunctionalReport,
    Grid,
    Metric,
    MinimizeResult,
    Seed,
    StationaryResidual,
    entropy,
    mass,
    minimize_dgamma,
    nehari_project,
    orbital_distance,
    orbital_distances,
    quadratic_form,
    report,
    sample_free_gaussian,
    sample_profile,
    sigma_norm,
    stationary_residual,
)
from .stationary import (
    BifurcationPoint,
    Branch,
    GroundStateParams,
    action_closed_form,
    bifurcation_sweep,
    d_free_line,
    d_gamma,
    d_zero,
    dgamma_lower_bound,
    eval_h,
    ground_states,
    mass_closed_form,
    n_gamma,
    profile,
    sigma_map,
    solve_3s,
)

__version__ = "0.1.0"
