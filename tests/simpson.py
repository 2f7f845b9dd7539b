"""Adaptive composite Simpson quadrature with error tracking.

The test oracle for the coverage analysis: the analytic module evaluates
its interference Laplace transforms in closed form and its
ordered-distance averages by fixed Gauss-Jacobi rules, and the tests check
both against this quadrature at tight tolerances.  It is a test helper,
not part of the package; tests import it as ``simpson``, as they import
``conftest``.  Tolerance is allocated proportionally to subinterval
length; the returned error estimate is the accumulated Richardson
estimate and is conservative for smooth integrands.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from musalink.analytic import QuadratureError

__all__ = ["QuadratureResult", "adaptive_simpson"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_DEPTH = 40


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Recursive interval halving with Richardson extrapolation of the
    Simpson estimates.  Raises :class:`QuadratureError` if some
    subinterval still misses its share of the tolerance at ``max_depth``.
    """
    if a > b:
        res = adaptive_simpson(f, b, a, tol, max_depth)
        return QuadratureResult(-res.value, res.error_estimate)
    if a == b:
        return QuadratureResult(0.0, 0.0)

    failed: list[bool] = []

    def recurse(lo: float, hi: float, flo: float, fmid: float, fhi: float,
                whole: float, local_tol: float, depth: int) -> tuple[float, float]:
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = _simpson(flo, flm, fmid, mid - lo)
        right = _simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if abs(err) <= local_tol:
            return left + right + err, abs(err)
        if depth >= max_depth:
            failed.append(True)
            return left + right + err, abs(err)
        lv, le = recurse(lo, mid, flo, flm, fmid, left, 0.5 * local_tol, depth + 1)
        rv, re = recurse(mid, hi, fmid, frm, fhi, right, 0.5 * local_tol, depth + 1)
        return lv + rv, le + re

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    value, err = recurse(a, b, fa, fm, fb, whole, tol, 0)
    if failed:
        raise QuadratureError(
            f"adaptive Simpson did not converge within depth {max_depth} "
            f"(estimate {value!r}, error estimate {err!r})",
            value,
            err,
        )
    return QuadratureResult(value, err)
