"""Quaternionic matrices through the complex embedding.

A quaternionic matrix A + Bj is stored as the pair (A, B) of complex
arrays.  The embedding Psi(A + Bj) = [[A, B], [-conj(B), conj(A)]] is a
*-homomorphism into complex 2n x 2n matrices, so spectra, exponentials,
and the whole J-positive calculus transfer to the quaternions.
"""

import numpy as np

from jcone import (Quaternion, Signature, fnorm, geodesic_distance,
                   hermitian_eig, psi_matrix, psi_structural_residual,
                   random_pj_bounded, trd, weighted_mean)

# Scalar quaternions: i*j = k and the rest of the table.
i, jq, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
print("i*j =", i * jq, " j*i =", jq * i)

sig = Signature(2, 1)
rng = np.random.default_rng(5)

A = random_pj_bounded(sig, "H", rng)
B = random_pj_bounded(sig, "H", rng)

# The embedding respects products and leaves a structural fingerprint:
# M in the image iff M J_2n = J_2n conj(M) for J_2n = [[0, I], [-I, 0]].
MA, MB = psi_matrix(A.matrix), psi_matrix(B.matrix)
print("\nhomomorphism |Psi(AB) - Psi(A)Psi(B)| =",
      np.linalg.norm(psi_matrix(A.matrix @ B.matrix) - MA @ MB))
print("structural residual of Psi(A):", psi_structural_residual(MA))

# Eigenvalues of Hermitian quaternionic matrices come in pairs under Psi;
# the library halves them and builds a quaternionic spectral decomposition.
jm = sig.matrix("H")
decomp = hermitian_eig(jm @ A.matrix)
print("\neigenvalues of JA:", np.round(decomp.eigenvalues, 6))
print("reconstruction error:",
      fnorm(decomp.reconstruct() - jm @ A.matrix))

# Means and distances work verbatim over H.
M = weighted_mean(A, B, 0.5).mean
print("\nreduced trace of the mean:", trd(M.matrix))
print("distance d(A, B) =", geodesic_distance(A, B))
print("d(A, mean) + d(mean, B) - d(A, B) =",
      geodesic_distance(A, M) + geodesic_distance(M, B)
      - geodesic_distance(A, B))
