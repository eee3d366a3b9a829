"""Kernel-free quadratic surface classifiers trained under the exact 0-1 loss.

The library fits the sign of h(x) = 0.5 x'Wx + b'x + c by a damped Newton
iteration on a stationarity residual, certifies the returned point
numerically, and ships a least-squares baseline, synthetic data
generators and a repeated-split benchmark harness.
"""

from .model import (Dataset, DesignCache, InputError, LossValue, SurfaceParams,
                    build_design, margins, param_dim, predict, predict_many,
                    smooth_gradient, smooth_value, total_loss, tri_dim)
from .prox import ProxParams, positive_count, prox_contains, prox_scalar, prox_vector, zero_one_loss
from .stationarity import (IndexSets, PStatCertificate, ResidualParts, alpha_bounds,
                           index_sets, pstationary_check, regular, residual, saddle_matrix)
from .newton import (RateProbe, SolveReport, SolveStatus, SolverConfig, SolverState,
                     gamma_update, newton_direction, rate_probe, solve)
from .baseline import accuracy, ls_qssvm_fit, warm_start_point
from .datagen import GenSpec, Kind, generate, generating_surface
from .bench import (BenchProtocol, Normalize, apply_normalizer, boundary_grid, fit_normalizer,
                    grid_to_csv, load_csv, rows_to_csv, rows_to_json, run_bench, save_csv,
                    split)

__version__ = "0.1.0"
