"""Finite-difference oracle for the closed-form jets of analytic_core."""

import stardisk as sd
from stardisk.errors import DiskDomainError, ParameterDomainError


def derivative_check(fh, z, h: float) -> float:
    """Worst relative deviation of the closed-form f', f'' from central
    differences of f with step h, taken along the +1 and +i directions and
    averaged (the averaging cancels the leading O(h^2) truncation term).
    """
    z0 = complex(z)
    if h <= 0.0:
        raise ParameterDomainError(f"step h must be positive (got {h:g})")
    if abs(z0) + h >= 1.0:
        raise DiskDomainError(f"|z| + h must stay below 1 (got {abs(z0) + h:g})")
    jet = sd.eval_jet(fh, z0)

    def value(dz):
        return sd.eval_jet(fh, z0 + dz).f

    fp, fm = value(h), value(-h)
    fpi, fmi = value(1j * h), value(-1j * h)
    df_est = 0.5 * ((fp - fm) / (2.0 * h) + (fpi - fmi) / (2j * h))
    d2f_est = 0.5 * ((fp - 2.0 * jet.f + fm) - (fpi - 2.0 * jet.f + fmi)) / h**2

    def rel(est, ref):
        return abs(est - ref) / max(1.0, abs(ref))

    return max(rel(df_est, jet.df), rel(d2f_est, jet.d2f))
