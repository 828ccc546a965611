"""Built-in control problems used by the command-line harness and tests."""

from __future__ import annotations

import math

import numpy as np

from .gl_ops import Grid
from .noether import OneParamGroup
from .pontryagin import OcpProblem

__all__ = ["build_example", "rotation_groups", "EXAMPLES"]


def _affine_problem(alpha: float, n: int, initial, L, dL_dx) -> OcpProblem:
    # dynamics x' = x + v and control cost |v|^2 / 2, so dH/dv = v + w and U* = -P
    initial = np.array(initial)
    eye = np.eye(initial.size)
    return OcpProblem(
        d=initial.size, m=initial.size, alpha=alpha, grid=Grid(0.0, 1.0, n),
        initial=initial, L=L, dL_dx=dL_dx,
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: x + v,
        df_dx=lambda x, v, t: eye,
        df_dv=lambda x, v, t: eye,
        lipschitz_M=1.0,
        control_update=lambda x, w, t: -w,
        vectorized=True,
    )


def _lq_problem(alpha: float, n: int) -> OcpProblem:
    # quadratic cost
    return _affine_problem(alpha, n, [1.0],
                           L=lambda x, v, t: 0.5 * (x[..., 0] ** 2 + v[..., 0] ** 2),
                           dL_dx=lambda x, v, t: x)


def _solved_problem(alpha: float, n: int) -> OcpProblem:
    # linear-in-state cost with a (1 - t) weight
    return _affine_problem(alpha, n, [1.0],
                           L=lambda x, v, t: (1.0 - t) * x[..., 0] + 0.5 * v[..., 0] ** 2,
                           dL_dx=lambda x, v, t: 1.0 - t)


def _rotation_problem(alpha: float, n: int) -> OcpProblem:
    # planar, rotation-symmetric: L = (|x|^2 + |v|^2)/2
    return _affine_problem(alpha, n, [1.0, 2.0],
                           L=lambda x, v, t: 0.5 * ((x * x).sum(-1) + (v * v).sum(-1)),
                           dL_dx=lambda x, v, t: x)


def _zero_problem(alpha: float, n: int) -> OcpProblem:
    # frozen dynamics and pure control cost: the optimum is u = 0, p = 0
    return OcpProblem(
        d=1, m=1, alpha=alpha, grid=Grid(0.0, 1.0, n), initial=np.array([1.0]),
        L=lambda x, v, t: 0.5 * v[..., 0] ** 2,
        dL_dx=lambda x, v, t: np.zeros_like(x),
        dL_dv=lambda x, v, t: v,
        f=lambda x, v, t: np.zeros_like(x),
        df_dx=lambda x, v, t: 0.0,
        df_dv=lambda x, v, t: 0.0,
        lipschitz_M=0.0,
        control_update=lambda x, w, t: np.zeros_like(w),
        vectorized=True,
    )


EXAMPLES = {
    "lq": _lq_problem,
    "solved": _solved_problem,
    "rotation": _rotation_problem,
    "zero": _zero_problem,
}


def build_example(name: str, alpha: float, n: int) -> OcpProblem:
    """Instantiate a registry problem on [0, 1]."""
    try:
        builder = EXAMPLES[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose from {sorted(EXAMPLES)}") from None
    return builder(alpha, n)


def _rotation(theta: float) -> OneParamGroup:
    # elementwise on the two coordinates, not a matrix product, so a stack of
    # rows is moved bit for bit as each row alone would be
    def apply(s: float, x: np.ndarray) -> np.ndarray:
        ang = s * theta
        c, sn = math.cos(ang), math.sin(ang)
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([c * x0 - sn * x1, sn * x0 + c * x1], axis=-1)

    return OneParamGroup(
        map=apply,
        generator=lambda x: np.stack([-theta * x[..., 1], theta * x[..., 0]], axis=-1),
    )


def rotation_groups() -> tuple[OneParamGroup, ...]:
    """The planar rotation action on (state, control, adjoint).

    The adjoint turns the opposite way, which is exactly what leaves the
    rotation problem's Hamiltonian bracket unchanged along solutions.
    """
    return (_rotation(1.0), _rotation(1.0), _rotation(-1.0))
