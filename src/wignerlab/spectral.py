"""Eigenvalue-based linear spectral statistics and exact matrix identities.

One eigensolve serves many spectral parameters: traces of resolvents are
rational functions of the spectrum. The verifiers evaluate both sides of the
one-row Schur-complement formulas and the two-resolvent identity on concrete
matrices and report residuals against analytic tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ensemble import WignerSample

__all__ = [
    "Spectrum",
    "SchurReport",
    "eigenvalues",
    "trace_resolvent",
    "linear_statistic",
    "verify_schur",
    "verify_resolvent_identity",
    "schur_tolerance",
    "resolvent_identity_tolerance",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues of one sample."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        object.__setattr__(self, "eigenvalues", np.sort(ev))
        self.eigenvalues.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def eigenvalues(smp: WignerSample | np.ndarray) -> Spectrum:
    """Spectrum of a Hermitian sample (or raw Hermitian matrix)."""
    mat = smp.matrix if isinstance(smp, WignerSample) else np.asarray(smp)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    ev = np.linalg.eigvalsh(mat)
    scale = max(float(np.max(np.abs(ev))), 1e-300)
    trace_defect = abs(ev.sum() - np.trace(mat).real)
    if trace_defect > 1e-8 * mat.shape[0] * scale:
        raise ArithmeticError(f"eigenvalue sum off trace by {trace_defect:.3e}")
    return Spectrum(eigenvalues=ev)


def trace_resolvent(spec: Spectrum, z: complex | np.ndarray) -> complex | np.ndarray:
    """Tr (z - X)^-1 = sum_i (z - lambda_i)^-1 for Im z != 0.

    A scalar z gives a Python complex. An array of z gives an array of that
    shape, each entry bitwise equal to the scalar call at its z.
    """
    zs = np.asarray(z, dtype=complex)
    real = zs.imag == 0.0
    if np.any(real):
        raise DomainError(f"trace_resolvent requires Im z != 0, got z={zs[real][0]}")
    tr = np.sum(1.0 / (zs[..., None] - spec.eigenvalues), axis=-1)
    return complex(tr) if zs.ndim == 0 else tr


def linear_statistic(spec: Spectrum, phi) -> complex:
    """Sum of phi over the spectrum."""
    values = np.asarray(phi(spec.eigenvalues), dtype=complex)
    total = complex(values.sum())
    if getattr(phi, "is_real", False) and abs(total.imag) > 1e-12 * max(1.0, abs(total)):
        raise ArithmeticError(f"real test function produced imaginary part {total.imag:.3e}")
    return total


def schur_tolerance(n: int, z: complex) -> float:
    return 1e-8 * n / abs(complex(z).imag) ** 2


def resolvent_identity_tolerance(z1: complex, z2: complex) -> float:
    return 1e-9 / (abs(complex(z1).imag) * abs(complex(z2).imag))


@dataclass(frozen=True)
class SchurReport:
    """Residuals of the two Schur-complement identities at one pivot.

    ``diag_residual`` checks the (k,k) entry of the inverse against the Schur
    complement; ``trace_residual`` checks the trace difference between the
    inverse and the pivot-deleted inverse. ``trace_gap`` is |Tr R - Tr R^(k)|,
    which must not exceed 1/|Im z|.
    """

    k: int
    z: complex
    diag_residual: float
    trace_residual: float
    trace_gap: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return (
            self.diag_residual <= self.tolerance
            and self.trace_residual <= self.tolerance
            and self.trace_gap <= 1.0 / abs(self.z.imag) + 1e-12
        )


def verify_schur(smp: WignerSample | np.ndarray, k: int, z: complex) -> SchurReport:
    """Evaluate both Schur-complement identities for A = zI - X at pivot k."""
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("verify_schur requires Im z != 0")
    mat = smp.matrix if isinstance(smp, WignerSample) else np.asarray(smp)
    n = mat.shape[0]
    a = z * np.eye(n, dtype=complex) - mat
    keep = [i for i in range(n) if i != k]
    b = a[np.ix_(keep, keep)]
    r = a[k, keep]
    c = a[keep, k]

    a_inv = np.linalg.inv(a)
    b_inv_c = np.linalg.solve(b, c)
    b_inv2_c = np.linalg.solve(b, b_inv_c)
    pivot = a[k, k] - r @ b_inv_c
    diag_residual = abs(a_inv[k, k] - 1.0 / pivot)

    trace_full = np.trace(a_inv)
    trace_minor = np.trace(np.linalg.inv(b))
    trace_residual = abs((trace_full - trace_minor) - (1.0 + r @ b_inv2_c) / pivot)
    return SchurReport(
        k=k,
        z=z,
        diag_residual=float(diag_residual),
        trace_residual=float(trace_residual),
        trace_gap=float(abs(trace_full - trace_minor)),
        tolerance=schur_tolerance(n, z),
    )


def verify_resolvent_identity(m1, m2, z1: complex, z2: complex) -> float:
    """Max-entry residual of R1(z1) - R2(z2) = R1 ((z2-z1) I + M1 - M2) R2."""
    z1, z2 = complex(z1), complex(z2)
    if z1.imag == 0.0 or z2.imag == 0.0:
        raise DomainError("resolvent identity requires Im z1, Im z2 != 0")
    m1 = np.asarray(m1, dtype=complex)
    m2 = np.asarray(m2, dtype=complex)
    n = m1.shape[0]
    r1 = np.linalg.inv(z1 * np.eye(n) - m1)
    r2 = np.linalg.inv(z2 * np.eye(n) - m2)
    rhs = r1 @ ((z2 - z1) * np.eye(n) + m1 - m2) @ r2
    return float(np.max(np.abs(r1 - r2 - rhs)))
