"""Event-by-event singlet correlations on the unit-quaternion 3-sphere.

Library layout:

* algebra      unit-quaternion/bivector operations, composite rotations,
               SU(2) vs SO(3) geodesics
* singlet      measurement functions, limit-of-product joint values, the
               exact correlation estimator, winding diagnostics
* kernel       sampler v3: the Philox block layout, the one rejection loop
               over a run's settings, the decision masks of every pair mode,
               their counts, the one count-table formula and the candidate
               tables it returns, the one reading of s3's kept cells, and
               the int8 outcomes
* pearle       the unit-ball state-space bridge: threshold mapping,
               pre-selected ensembles, probability tables, flat baseline
* bounds       exhaustive CHSH-type bound enumeration, Boole row checks,
               CHSH evaluation against any correlation source
* experiments  named seeded runs emitting CSV/JSON artifacts
* cli          the `s3sim` command
* oracle       expected count tables by quadrature, for checking the
               Monte Carlo (not imported here)
"""
from .algebra import (Bivector, GeodesicPoint, SingularAxisError, composite_angle,
                      composite_axis, composite_axis_numerator, dist_so3, dist_su2,
                      geodesic_sweep, quat_conj, quat_from_axis_angle,
                      quat_from_half_angle, quat_mul, quat_norm, rotate_bivector,
                      rotation_matrix, spinorial_sign)
from .bounds import (BinaryAssignment, BoundReport, BooleReport, CHSHResult,
                     SettingsQuad, boole_check, bound_report, canonical_quad, chsh,
                     cosine_correlation, enumerate_four_average_bound,
                     enumerate_single_average_bound, sawtooth_correlation)
from .curves import CorrelationCurve, CurvePoint, read_curve_csv, write_curve_csv
from .experiments import ExperimentConfig, chsh_monte_carlo, compare_models, run
from .pearle import (InitialState, PearleMapping, ProbabilityTable,
                     correlation_from_probabilities, detection_fraction,
                     ensemble_sample, estimate_pair, flat_mode_curve, pearle_f,
                     pearle_f_complement, probabilities, run_pair)
from .singlet import (CorrelationEstimate, HiddenVariable, RunRecord,
                      SignProductDiagnostic, correlation, joint_limit_value,
                      measure_alice, measure_bob, records_to_csv,
                      sign_product_diagnostic, simulate_runs)

__version__ = "0.1.0"
