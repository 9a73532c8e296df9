"""Matrix products: the package writes them as ``a.dot(b)``, which must give the bits of ``a @ b``.

``ndarray.dot`` reaches the same BLAS kernels as the matmul operator without
its ufunc dispatch, which at the sizes the package multiplies costs about as
much as the whole ``.dot`` call. The oracles in ``helpers.py`` keep ``@``: they are
the array formulas.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import random_quaternion, random_unit, same_bits
from rotorarm import (
    CATALOG_IDS,
    AllocatorInput,
    AllocatorState,
    DroneModel,
    HoverProblem,
    InfeasibleHoverError,
    PenaltyWeights,
    assemble_kkt,
    build_catalog,
    solve_hover,
)
import rotorarm

DRAWS = 100


def assert_dot_is_matmul(a, b, what):
    assert same_bits(a.dot(b), a @ b), f"{what}: {a.shape} . {b.shape}, {a.strides} . {b.strides}"


def test_the_package_has_no_matmul_operator():
    """Every product in src/rotorarm is ``.dot``: an ``@`` or ``@=`` fails with its file and line."""
    package = Path(rotorarm.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.relative_to(package.parent)}:{node.lineno}")
    assert not found, f"matmul operator in {', '.join(found)}; write a.dot(b)"


@pytest.mark.parametrize("config_id", CATALOG_IDS)
def test_hover_products_have_the_matmul_bits(config_id, rng):
    """solve_hover's Fortran-ordered free columns and their pinv, and upward_fraction's forces . up."""
    g = build_catalog(config_id)
    fm = g.hover_map
    n_cols = fm.matrix.shape[1]
    for clamped in (0, *(1 << c for c in range(n_cols)), (1 << n_cols) - 2):
        free = fm.free_columns(clamped)
        for _ in range(DRAWS):
            target = np.concatenate((random_unit(rng) * rng.uniform(1.0, 50.0), np.zeros(3)))
            assert_dot_is_matmul(free.pinv, target, f"pinv of clamp set {clamped:#x}")
            assert_dot_is_matmul(free.matrix, rng.normal(size=len(free.cols)),
                                 f"matrix of clamp set {clamped:#x}")
    for _ in range(DRAWS):
        up = random_unit(rng)
        try:
            forces = solve_hover(HoverProblem(g, up)).forces
        except InfeasibleHoverError:  # no hover here, which says nothing about the product
            continue
        assert_dot_is_matmul(forces, up, "forces . up")
    ups = np.array([random_unit(rng) for _ in range(DRAWS)])
    assert_dot_is_matmul(ups, g.axes.T, "ups . axes.T")


@pytest.mark.parametrize("config_id", CATALOG_IDS)
def test_allocation_and_flight_products_have_the_matmul_bits(config_id, rng):
    """The wrench rows, the KKT system, the pinv allocator and the rigid body's frame changes."""
    model = DroneModel(build_catalog(config_id))
    n = model.geometry.n_arms
    # the pinv allocator serves layouts whose arms all rotate
    pinv = model._thrust_plane_pinv[0] if model.geometry.rotating.all() else None
    for _ in range(DRAWS):
        angles = rng.uniform(-np.pi, np.pi, n)
        x = np.concatenate((rng.uniform(-0.2, 1.2, n), angles, rng.normal(size=6)))
        pair = model._wrench_pair(angles.tolist())
        assert_dot_is_matmul(x[:n], pair[:n], "throttles . W")
        assert_dot_is_matmul(pair, x[2 * n:], "[W; dW] . lambda")
        assert_dot_is_matmul(x[:n], model.wrenches_at(angles), "throttles . wrenches_at")

        q = random_quaternion(rng)
        rot = q.to_matrix()
        inp = AllocatorInput(q, rng.normal(size=3) * 20.0, rng.normal(size=3))
        assert_dot_is_matmul(np.array((inp.force, inp.torque)), rot, "body wrench")
        assert_dot_is_matmul(rot, rng.normal(size=3), "rotation . vector")
        assert_dot_is_matmul(model.inertia, rng.normal(size=3), "inertia . omega")
        if pinv is not None:
            assert_dot_is_matmul(pinv, inp.body_wrench(), "pinv allocator")

        state = AllocatorState(x[:n], angles, x[2 * n:], angles + rng.normal(0.0, 0.01, n))
        hess, grad = assemble_kkt(state, inp, model, PenaltyWeights())
        delta = np.linalg.solve(hess, -grad)
        residual = hess.dot(delta) + grad
        assert_dot_is_matmul(hess, delta, "H . delta")
        for v in (grad, residual, residual[:3], residual[3:]):
            assert_dot_is_matmul(v, v, "squared norm")
