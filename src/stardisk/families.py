"""The four parametric example families and builtin anchor functions.

Every family is an instance of the single power form

    f(z) = (1/mu) (1 - (1-z)^mu)

with the exponent mu determined by the family id and its shape parameter
beta.  Each family is one row of _PARAMETRIC: its beta test, the interval
that its refusals and the --family help name, and mu(beta).  The families
also expose direct closed forms of z f'/f and 1 + z f''/f', written from
beta instead of the jet, as cross-check oracles.  They share the main
path's beta check, mu and mu = 0 log-limit switch (from make_family,
through _require_parametric) and its log_one_minus, so they are not
independent of it; ROADMAP item 8 moves them out of the package.

Builtins (Koebe, half plane, the quadratic z - z^2/2, normalized monomial
perturbations, truncated series) are known-answer anchors that make the
invariants assertable without any family parameter.  Each builtin family
id is one row of _BUILTINS, id to builder, as each paper family is of _PARAMETRIC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_core import FunctionHandle, MAX_SERIES_COEFFS, _beta_text, _integer, log_one_minus
from .errors import ParameterDomainError

# id: (beta test, interval text, exponent mu(beta))
_PARAMETRIC = {
    "ex1_high": (lambda b: 2.0 <= b < 3.0, "2 <= beta < 3", lambda b: 2.0 / (b - 1.0)),
    "ex1_low": (lambda b: 1.0 < b <= 2.0, "1 < beta <= 2",
                lambda b: 2.0 * (2.0 * b - 1.0) / (b + 1.0)),
    "ex2_pos": (lambda b: b > 1.0, "beta > 1",
                lambda b: (-b * b + 2.0 * b + 1.0) / (b * (b + 1.0))),
    "ex2_neg": (lambda b: b <= -1.0, "beta <= -1",
                lambda b: -(b * b + 1.0) / (b * (b - 1.0))),
}
PARAMETRIC_FAMILIES = tuple(_PARAMETRIC)


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its beta (absent for builtins)."""

    id: str
    beta: float | None = None


def power_exponent(family_id: str, beta: float) -> float:
    """The exponent mu of the power form for a parametric family at beta."""
    if family_id not in _PARAMETRIC:
        raise ParameterDomainError(f"'{family_id}' is not a parametric family id")
    return _PARAMETRIC[family_id][2](beta)


def _canonical_int(text: str) -> int:
    """int(text) if str() of that int gives text back, else ValueError;
    int() alone also takes '+2', '02', ' 2', '3_0' and non-ASCII digits."""
    if str(int(text)) != text:
        raise ValueError(text)
    return int(text)


def make_family(spec: FamilySpec) -> FunctionHandle:
    """Check spec and build the handle it describes, in one pass.

    Paper ids give the power form; mu = 0 (ex2_pos at beta = 1 + sqrt 2,
    where the closed-form denominator vanishes) degenerates to the analytic
    limit -log(1-z).  Any mu != 0, however small, keeps the power form,
    which stays accurate to about 1e-15 there.
    """
    if spec.id in _PARAMETRIC:
        check, interval, exponent = _PARAMETRIC[spec.id]
        if spec.beta is None:
            raise ParameterDomainError(f"family {spec.id} needs beta in {interval}")
        if not (math.isfinite(spec.beta) and check(spec.beta)):
            raise ParameterDomainError(
                f"family {spec.id} needs {interval} (got beta = {_beta_text(spec.beta)})"
            )
        mu = exponent(spec.beta)
        if not math.isfinite(mu):
            raise ParameterDomainError(
                f"family {spec.id} needs {interval} with a finite exponent mu "
                f"(got beta = {_beta_text(spec.beta)}, mu = {mu:g})"
            )
        label = f"{spec.id}(beta={_beta_text(spec.beta)})"
        return FunctionHandle(kind="log" if mu == 0.0 else "power", label=label, mu=mu)
    base, colon, arg = spec.id.partition(":")
    if base not in _BUILTINS:
        raise ParameterDomainError(
            f"unknown family '{spec.id}'; expected one of "
            f"{PARAMETRIC_FAMILIES + BUILTIN_FAMILIES}"
        )
    if spec.beta is not None:
        raise ParameterDomainError(f"builtin {spec.id} takes no beta")
    if base == "builtin_monomial":
        try:
            order = _canonical_int(arg) if colon else 1
        except ValueError:
            raise ParameterDomainError(f"bad monomial order in '{spec.id}'") from None
        return monomial(order)
    if spec.id != base:
        raise ParameterDomainError(f"unknown builtin '{spec.id}'")
    return _BUILTINS[base]()


def series(coeffs, label: str | None = None) -> FunctionHandle:
    """Truncated power series z + sum_{n>=2} a_n z^n (at most a_64)."""
    t = tuple(complex(c) for c in coeffs)
    return FunctionHandle(kind="series", label=label or f"series[{len(t)}]", coeffs=t)


def koebe() -> FunctionHandle:
    """z/(1-z)^2, with z f'/f = (1+z)/(1-z)."""
    return FunctionHandle(kind="koebe", label="builtin_koebe")


def halfplane() -> FunctionHandle:
    """z/(1-z), with z f'/f = 1/(1-z)."""
    return FunctionHandle(kind="halfplane", label="builtin_halfplane")


def quadratic() -> FunctionHandle:
    """z - z^2/2."""
    return series((-0.5,), label="builtin_quadratic")


def monomial(n: int) -> FunctionHandle:
    """The identity z for n = 1, else the normalized perturbation z + z^n/n."""
    n = _integer(n, "monomial order")
    if n < 1 or n > MAX_SERIES_COEFFS + 1:
        raise ParameterDomainError(
            f"monomial order must be in 1..{MAX_SERIES_COEFFS + 1} (got {n})"
        )
    if n == 1:
        return series((), label="builtin_monomial:1")
    coeffs = (0.0,) * (n - 2) + (1.0 / n,)
    return series(coeffs, label=f"builtin_monomial:{n}")


# id: builder; the monomial's takes the N of builtin_monomial:N (1 when absent)
_BUILTINS = {"builtin_koebe": koebe, "builtin_halfplane": halfplane,
             "builtin_quadratic": quadratic, "builtin_monomial": monomial}
BUILTIN_FAMILIES = tuple(_BUILTINS)


def _pw(z, e):
    # (1-z)^e, principal branch
    return np.exp(e * log_one_minus(z))


def _one_minus_pw(z, e):
    # 1 - (1-z)^e, stable when e Log(1-z) is small
    return -np.expm1(e * log_one_minus(z))


def _require_parametric(spec: FamilySpec) -> float:
    """The exponent mu of a parametric spec.  A builtin without beta is
    refused here; make_family refuses every other spec it cannot build."""
    if spec.beta is None and spec.id.split(":", 1)[0] in _BUILTINS:
        raise ParameterDomainError(
            f"closed forms exist for the parametric families only (got '{spec.id}')"
        )
    return make_family(spec).mu  # 0.0 for the log handle


def _with_origin_limit(arr, num, den):
    zero = arr == 0
    out = np.where(zero, 1.0, num) / np.where(zero, 1.0, den)
    return np.where(zero, 1.0, out)


def closed_form_q(spec: FamilySpec, z):
    """The direct closed form of z f'/f for a parametric family.

    At the singular ex2_pos parameter (mu = 0) the generic expression is
    0/0 and the analytic limit -z / ((1-z) Log(1-z)) is used instead.
    """
    mu = _require_parametric(spec)
    arr = np.asarray(z, dtype=complex)
    b = spec.beta
    if mu == 0.0:
        num = -arr
        den = (1.0 - arr) * log_one_minus(arr)
    elif spec.id == "ex1_high":
        num = 2.0 * arr * _pw(arr, (3.0 - b) / (b - 1.0))
        den = (b - 1.0) * _one_minus_pw(arr, 2.0 / (b - 1.0))
    elif spec.id == "ex1_low":
        num = 2.0 * (2.0 * b - 1.0) * arr * _pw(arr, 3.0 * (b - 1.0) / (b + 1.0))
        den = (b + 1.0) * _one_minus_pw(arr, 2.0 * (2.0 * b - 1.0) / (b + 1.0))
    elif spec.id == "ex2_pos":
        c = -b * b + 2.0 * b + 1.0
        num = c * arr
        den = (
            b
            * (b + 1.0)
            * _pw(arr, (2.0 * b * b - b - 1.0) / (b * (b + 1.0)))
            * _one_minus_pw(arr, c / (b * (b + 1.0)))
        )
    else:  # ex2_neg
        c = b * b + 1.0
        num = -c * arr
        den = (
            b
            * (b - 1.0)
            * _pw(arr, (2.0 * b * b - b + 1.0) / (b * (b - 1.0)))
            * _one_minus_pw(arr, -c / (b * (b - 1.0)))
        )
    out = _with_origin_limit(arr, num, den)
    return complex(out) if np.ndim(z) == 0 else out


def closed_form_p(spec: FamilySpec, z):
    """The direct rational closed form of 1 + z f''/f' for a parametric family."""
    _require_parametric(spec)
    arr = np.asarray(z, dtype=complex)
    b = spec.beta
    if spec.id == "ex1_high":
        out = (b - 1.0 - 2.0 * arr) / ((b - 1.0) * (1.0 - arr))
    elif spec.id == "ex1_low":
        out = (b + 1.0 - 2.0 * (2.0 * b - 1.0) * arr) / ((b + 1.0) * (1.0 - arr))
    elif spec.id == "ex2_pos":
        out = (b * (b + 1.0) + (b * b - 2.0 * b - 1.0) * arr) / (
            b * (b + 1.0) * (1.0 - arr)
        )
    else:  # ex2_neg
        out = (b * (b - 1.0) + (b * b + 1.0) * arr) / (b * (b - 1.0) * (1.0 - arr))
    return complex(out) if np.ndim(z) == 0 else out
