"""Calculus on the cone of J-positive matrices over R, C and the quaternions."""

from .errors import (DimensionMismatch, IndeterminateSchur, JConeError,
                     NotBulletCommuting, NotHermitian, NotInImage,
                     NotJHermitian, NotJPositive, NotPositive, PremiseViolated,
                     SignatureMismatch, Singular, StepTooSmall, UnknownSuite,
                     WeightOutOfRange)
from .scalars import (Quaternion, psi_scalar, psi_scalar_inverse, quat_conj,
                      quat_mul, quat_norm, trd_scalar)
from .matcore import (QMatrix, SpectralDecomposition, adjoint, block2x2,
                      eigvals_hermitian, field_of, fnorm, hermitian_eig,
                      identity, is_positive_definite, mat_exp_h, mat_inverse,
                      mat_log_pd, mat_pow_pd, mat_sqrt_pd, matrix_function,
                      psi_inverse, psi_matrix, psi_structural_residual, trd)
from .jstruct import (JHermitianBlocks, JPositive, Signature, block_decompose,
                      in_pj, is_in_K_J, is_in_U_J, is_j_hermitian,
                      is_j_positive, j_inner, phi_J, phi_J_inv,
                      schur_j_positive, sharp)
from .jcalc import (bullet, bullet_commutator, bullet_inverse, exp_J, log_J,
                    polar_decompose_bullet, pow_J, random_invertible,
                    random_jhermitian, random_kj, random_pj, random_pj_bounded)
from .order import OrderVerdict, j_leq, loewner_leq
from .geometry import (curve_ode_residual, geodesic, geodesic_distance,
                       geodesic_ode_residual, metric_omega)
from .means import (InequalityVerdict, MeanResult, ando_hiai_check,
                    ando_hiai_normalize, arithmetic_mean_J,
                    commuting_bullet_mean, furuta_check, harmonic_mean_J,
                    maximality_check, riccati_residual, riccati_solve,
                    weighted_mean)

__version__ = "0.1.0"
