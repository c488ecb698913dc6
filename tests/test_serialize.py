import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectral3.serialize import complex_pair, dumps17, pair_complex

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite)
def test_float_roundtrip_exact(x):
    back = json.loads(dumps17({"v": x}))["v"]
    assert back == x or (math.isnan(back) and math.isnan(x))


@given(st.integers(-2**53, 2**53))
def test_int_stays_int(n):
    s = dumps17({"n": n})
    assert json.loads(s)["n"] == n
    assert "." not in s.split(":")[1].split("\n")[0] or n != int(n)


def test_structures():
    obj = {"a": [1, 2.5, True, None, "s"], "b": {"c": [0.1, -0.2]},
           "empty_list": [], "empty_dict": {}}
    assert json.loads(dumps17(obj)) == obj


def test_bool_not_number():
    assert dumps17(True).strip() == "true"
    assert dumps17([True, False]).strip() == "[\n  true,\n  false\n]"


@pytest.mark.parametrize("value, plain", [
    (np.float64(0.1), 0.1),
    (np.int64(7), 7),
    (np.bool_(True), True),
    ([np.int64(1), np.float64(-0.25)], [1, -0.25]),
    (np.array(2.5), 2.5),
    (np.array([1, 2, 3]), [1, 2, 3]),
    (np.array([[0.5, 1.0], [np.pi, -2.0]]), [[0.5, 1.0], [np.pi, -2.0]]),
    (np.array([True, False]), [True, False]),
    (1.5 - 2.0j, complex_pair(1.5 - 2.0j)),
    (np.complex128(-0.0 + 3.0j), complex_pair(-0.0 + 3.0j)),
    (np.array([1.0 + 2.0j, 3.0]), [[1.0, 2.0], [3.0, 0.0]]),
    ({"k": (np.float64(1.0), 2j)}, {"k": [1.0, [0.0, 2.0]]}),
])
def test_numpy_and_complex_render_as_python(value, plain):
    assert dumps17(value) == dumps17(plain)
    assert dumps17({"v": value}) == dumps17({"v": plain})


def test_nonfinite_rejected():
    for bad in (float("inf"), np.float64("nan"), np.array([1.0, np.inf]),
                complex(0.0, float("inf"))):
        with pytest.raises(ValueError):
            dumps17({"v": bad})
    with pytest.raises(TypeError):
        dumps17({"v": object()})
    with pytest.raises(TypeError):
        dumps17({"v": np.datetime64("2020-01-01")})


@given(finite, finite)
def test_complex_pair_roundtrip(re, im):
    z = complex(re, im)
    assert pair_complex(complex_pair(z)) == z
