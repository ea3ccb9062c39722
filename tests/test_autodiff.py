import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgim
from sgim import autodiff as ad
from sgim.errors import (DegenerateInputError, DimensionError, ParameterError,
                         UsageError)

from graph_reference import finite_difference_check


def _imported_modules(path: Path) -> set[str]:
    """Every module an import statement in ``path`` names, with each
    ``from X import y`` also giving X.y (y may be a module)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{a.name}".lstrip(".") for a in node.names)
    return names


def test_no_src_module_imports_autodiff():
    # the pipeline differentiates by hand; the graph engine serves the test
    # oracle alone
    importers = sorted(
        path.name for path in Path(sgim.__file__).parent.glob("*.py")
        if any("autodiff" in name.split(".")
               for name in _imported_modules(path)))
    assert importers == []


def test_array_rejects_non_finite():
    with pytest.raises(DegenerateInputError):
        ad.array([1.0, float("nan")])
    with pytest.raises(DegenerateInputError):
        ad.array([float("inf")])


def test_matmul_identity():
    a = ad.leaf([[1.0, 0.0], [0.0, 1.0]])
    b = ad.leaf([[2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(ad.matmul(a, b).value, [[2.0, 3.0], [4.0, 5.0]])


def test_matmul_hand_expansion():
    # 1*3 + 2*4 = 11
    out = ad.matmul(ad.leaf([[1.0, 2.0]]), ad.leaf([[3.0], [4.0]]))
    assert out.value[0, 0] == 11.0


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(ad.leaf([[1.0, 2.0]]), ad.leaf([[1.0, 2.0]]))


def test_matmul_gradient_matches_finite_differences():
    b = np.array([[3.0], [4.0]])
    err = finite_difference_check(
        lambda a: ad.sum_all(ad.matmul(a, ad.constant(b))),
        np.array([[1.0, 2.0]]), eps=1e-6)
    assert err < 1e-4
    # analytic value is b itself
    a = ad.leaf([[1.0, 2.0]])
    ad.backward(ad.sum_all(ad.matmul(a, ad.constant(b))))
    assert np.allclose(a.grad, [[3.0, 4.0]])


def test_row_softmax_symmetry():
    out = ad.row_softmax(ad.leaf([[0.0, 0.0]]), 1.0)
    assert np.allclose(out.value, [[0.5, 0.5]])


def test_row_softmax_hand_values():
    # e/(e+1) and e^2/(e^2+1), evaluated directly
    e = math.e
    out1 = ad.row_softmax(ad.leaf([[1.0, 0.0]]), 1.0).value
    assert abs(out1[0, 0] - e / (e + 1.0)) < 1e-12
    assert abs(out1[0, 0] - 0.73106) < 1e-4
    out2 = ad.row_softmax(ad.leaf([[1.0, 0.0]]), 0.5).value
    assert abs(out2[0, 0] - e**2 / (e**2 + 1.0)) < 1e-12
    assert abs(out2[0, 0] - 0.88080) < 1e-4
    assert abs(out2[0, 1] - 0.11920) < 1e-4


def test_row_softmax_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        ad.row_softmax(ad.leaf([[1.0, 0.0]]), 0.0)
    with pytest.raises(ParameterError):
        ad.row_softmax(ad.leaf([[1.0, 0.0]]), -1.0)


@settings(max_examples=50)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1),
       st.floats(0.05, 5.0))
def test_row_softmax_rows_sum_to_one(rows, tau):
    out = ad.row_softmax(ad.leaf(rows), tau).value
    assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)


def test_l2_normalize_rows_hand_case():
    out = ad.l2_normalize_rows(ad.leaf([[3.0, 4.0]])).value
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)
    out = ad.l2_normalize_rows(ad.leaf([[1.0, 0.0]])).value
    assert np.array_equal(out, [[1.0, 0.0]])


def test_l2_normalize_rows_zero_norm():
    with pytest.raises(DegenerateInputError):
        ad.l2_normalize_rows(ad.leaf([[0.0, 0.0]]))


def test_primitive_trivia():
    assert ad.max_with_zero(ad.leaf(-2.0)).value == 0.0
    t = ad.leaf(0.0)
    ad.backward(ad.tanh(t))
    assert t.grad == 1.0  # 1 - tanh^2(0)


def test_backward_requires_scalar_root():
    with pytest.raises(UsageError):
        ad.backward(ad.leaf([[1.0, 2.0]]))


def test_backward_sum_gives_ones():
    x = ad.leaf([[1.0, -2.0], [0.5, 3.0]])
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_quadratic():
    x = ad.leaf([[1.0, 2.0]])
    ad.backward(ad.sum_all(ad.mul_elementwise(x, x)))
    assert np.array_equal(x.grad, [[2.0, 4.0]])


def test_gradient_accumulation_exact():
    x = ad.leaf(3.0)
    ad.backward(ad.add(x, x))
    assert x.grad == 2.0


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(0)
    xv = rng.standard_normal((4, 5))

    def run():
        x = ad.leaf(xv)
        y = ad.row_softmax(ad.matmul(x, ad.transpose(x)), 0.3)
        ad.backward(ad.sum_all(ad.mul_elementwise(y, y)))
        return x.grad

    g1, g2 = run(), run()
    assert g1.tobytes() == g2.tobytes()


def test_finite_difference_linear_is_tiny():
    err = finite_difference_check(ad.sum_all, np.array([[1.0, -2.0, 0.5]]))
    assert err < 1e-10


def test_row_broadcast_add_backward():
    x = ad.leaf(np.ones((3, 2)))
    b = ad.leaf([[1.0, 2.0]])
    ad.backward(ad.sum_all(ad.add(x, b)))
    assert np.array_equal(b.grad, [[3.0, 3.0]])


PRIMITIVE_CASES = [
    ("add", lambda x: ad.sum_all(ad.add(x, ad.constant(_P1))), (3, 4), None),
    ("sub", lambda x: ad.sum_all(ad.mul_elementwise(
        ad.sub(x, ad.constant(_P1)), ad.sub(x, ad.constant(_P1)))), (3, 4), None),
    ("mul_elementwise", lambda x: ad.sum_all(
        ad.mul_elementwise(x, ad.constant(_P1))), (3, 4), None),
    ("scale", lambda x: ad.sum_all(ad.scale(x, -1.7)), (3, 4), None),
    ("tanh", lambda x: ad.sum_all(ad.tanh(x)), (3, 4), None),
    ("max_with_zero", lambda x: ad.sum_all(ad.max_with_zero(x)), (3, 4), "off_kink"),
    ("sum", lambda x: ad.sum_all(ad.mul_elementwise(x, x)), (3, 4), None),
    ("transpose", lambda x: ad.sum_all(ad.mul_elementwise(
        ad.transpose(x), ad.constant(_P2))), (3, 4), None),
    ("slice_rows", lambda x: ad.sum_all(ad.mul_elementwise(
        ad.slice_rows(x, 1, 3), ad.slice_rows(x, 1, 3))), (3, 4), None),
    ("matmul", lambda x: ad.sum_all(ad.matmul(x, ad.constant(_P3))), (3, 4), None),
    ("row_l2_norm", lambda x: ad.sum_all(ad.row_l2_norm(x)), (3, 4), "off_kink"),
    ("l2_normalize_rows", lambda x: ad.sum_all(ad.mul_elementwise(
        ad.l2_normalize_rows(x), ad.constant(_P1))), (3, 4), "off_kink"),
    ("row_softmax", lambda x: ad.sum_all(ad.mul_elementwise(
        ad.row_softmax(x, 0.7), ad.constant(_P1))), (3, 4), None),
]

_rng = np.random.default_rng(1234)
_P1 = _rng.standard_normal((3, 4))
_P2 = _rng.standard_normal((4, 3))
_P3 = _rng.standard_normal((4, 2))


def _sample_point(rng, shape, domain):
    x = rng.standard_normal(shape)
    if domain == "off_kink":
        x = np.where(np.abs(x) < 0.2, x + 0.5, x)
    return x


@pytest.mark.parametrize("name,fn,shape,domain",
                         PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_at_ten_points(name, fn, shape, domain):
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = _sample_point(rng, shape, domain)
        assert finite_difference_check(fn, x) < 1e-4, name
