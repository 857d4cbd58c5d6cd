"""Covariate-balance optimization for randomized experiments via Gaussian
correlation designs: analytic covariance maps, projected gradient descent on
the correlation elliptope, Horvitz-Thompson estimation, design-based
inference, and Monte Carlo benchmarks."""

from .covmap import (ArmQuantiles, CovarianceMap, apply_map, build_table,
                     discretize, f_arm, f_cross, quantile_thresholds, r_ij,
                     weighted_discrete_map)
from .elliptope import (CorrelationFactor, GaussianDraws, block_factor,
                        factor_from_rows, identity_factor, sample, validate)
from .estimators import (EstimandSpec, ExperimentRecords, WeightFn,
                         ht_arm, ht_contrast, ht_continuous,
                         rescale_treatment, true_estimand, weight_eval)
from .hermite import (ContinuousCovMaps, HermiteExpansion, ThresholdIndicator,
                      continuous_cov_maps, hermite_coeffs, mehler_series,
                      normalized_hermite)
from .inference import (ContinuousModelSpec, IntervalReport, VarianceReport,
                        aronow_samii_bound, normal_ci, ols_fit,
                        randomization_ci_continuous, randomization_ci_discrete,
                        true_variance, variance_ht_arm)
from .optimizer import (Backtracking, DesignProblem, FixedStep,
                        OptimizationError, OptimizerTrace, design_problem,
                        discrete_problem, gradient_nuclear, gradient_operator,
                        objective, pgd_gauss, pgd_step)
from .simbench import (BenchmarkReport, CompleteRandomization, GaussianDesign,
                       Rerandomization, Scenario, gen_continuous,
                       gen_factorial, gen_three_arm, mc_coverage,
                       mc_estimates, mc_mse, run_scenario)

__version__ = "0.1.0"
