"""serialize.dumps against its contract: the text of
json.dumps(obj, sort_keys=True, indent=1, allow_nan=False), byte for byte,
and the same exception where json.dumps raises one."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tenfold import catalog, cli, serialize, toeplitz


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_catalog_elements_match_json(resolution):
    """The document `catalog --emit` writes, its element arrays as float
    arrays, against json's text of element_to_json's nested lists."""
    for name in catalog.names():
        obj = catalog.generator(name, resolution)
        if catalog.entry(name).exact:
            doc = lists = toeplitz.element_to_json(obj)
        else:
            doc = serialize.element_doc(obj.element, obj.algebra)
            lists = serialize.element_to_json(obj.element, obj.algebra)
        assert serialize.dumps(doc) == reference(lists), name


def _cli_text(capsys, argv):
    assert cli.main(argv) in (0, 2)
    return capsys.readouterr().out


def test_cli_reports_match_json(tmp_path, capsys):
    grid, point = tmp_path / "x3.json", tmp_path / "const_k0.json"
    shift = tmp_path / "shift_u_k2.json"
    for path in (grid, point, shift):
        assert cli.main(["catalog", "--emit", path.stem, "--out", str(path)]) == 0
    huge = json.loads(grid.read_text())
    huge["values"][3][0][0][0] = 1e200  # an overflowing residual, written as null
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    texts = [_cli_text(capsys, argv) for argv in (
        ["catalog"], ["classify", str(grid)],
        ["classify", str(tmp_path / "huge.json")],
        ["boundary", str(point), "--ses", "circle-id", "--class", "0"],
        ["boundary", str(shift), "--ses", "toeplitz", "--class", "2"])]
    assert "null" in texts[2]
    for text in texts + [p.read_text() for p in (grid, point, shift)]:
        assert text == reference(json.loads(text)) + "\n"


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [[], []], [[1, 2], [3]], [[1, 2.0]], [[True, False]], [None],
    [[[1.5, -0.0]], [[5e-324, 1e16]]], [["a", "é"], ["\n", "\ud800"]],
    ([1, 2], (3.0,)), {"b": [1], "a": {"c": ()}}, {2: "x", 10: "y", 1.5: None},
    {True: 1}, {None: [0]}, np.float64(0.1), [np.float64(0.1), 0.2], 10 ** 40,
])
def test_edge_values_match_json(obj):
    assert serialize.dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    math.nan, [math.inf], [[1.0, -math.inf]], {"a": [0.0, math.nan]}, {math.nan: 1},
    np.int64(1), [[np.int64(1)]], {(1,): 0}, {"a": 0, 1: 0}, [{1, 2}],
])
def test_refusals_match_json(obj):
    with pytest.raises((TypeError, ValueError)) as want:
        reference(obj)
    with pytest.raises(want.type) as got:
        serialize.dumps(obj)
    assert str(got.value) == str(want.value)


# -- float64 arrays: one repr per distinct bit pattern, joined by shape ----------------

_ARRAY_FLOATS = (st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, -1.0,
                                  1.7976931348623157e308, -1.7976931348623157e308])
                 | st.floats(allow_nan=False, allow_infinity=False))


def _holding(x):
    """A document holding x at three depths."""
    return {"a": x, "b": [x, {"c": x}]}


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                                max_side=3), elements=_ARRAY_FLOATS))
def test_float_arrays_match_json_of_tolist(a):
    assert serialize.dumps(_holding(a)) == reference(_holding(a.tolist()))


@pytest.mark.parametrize("a", [
    np.array(1.5), np.array(-0.0), np.zeros(0), np.zeros((2, 0, 3)),
    np.arange(6).reshape(2, 3), np.array([0.1, -0.0], dtype=np.float32),
    np.array([[0.25, 1e300]]).T, np.array([True, False]), np.array(["a", "é"]),
    np.array([1.0, -2.0]).astype(">f8"),
])
def test_other_arrays_match_json_of_tolist(a):
    assert serialize.dumps(_holding(a)) == reference(_holding(a.tolist()))


@pytest.mark.parametrize("a", [
    np.array([np.nan]), np.array([[0.0, 1.0], [np.inf, 2.0]]),
    np.array([[[-np.inf]]]), np.array(np.nan), np.array([1j]),
])
def test_array_refusals_match_json_of_tolist(a):
    with pytest.raises((TypeError, ValueError)) as want:
        reference(_holding(a.tolist()))
    with pytest.raises(want.type) as got:
        serialize.dumps(_holding(a))
    assert str(got.value) == str(want.value)


def test_container_holding_itself_raises():
    row, doc = [], {}
    row.append(row)
    doc["a"] = [doc]
    for obj in (row, [[row]], doc):
        with pytest.raises(RecursionError):
            serialize.dumps(obj)


_KEYS = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n\t", "é中", "\ud83d"])
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e16, 1e308, 0.1]))
_INTS = st.integers() | st.sampled_from([2 ** 64, -(10 ** 30)])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _KEYS


@st.composite
def _regular(draw):
    """A regular nested list, of one leaf type or of mixed scalars."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    leaf = draw(st.sampled_from([_INTS, _FLOATS, _KEYS, _INTS | _FLOATS, _SCALARS]))
    flat = draw(st.lists(leaf, min_size=math.prod(shape), max_size=math.prod(shape)))
    for n in reversed(shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


_TREES = st.recursive(_SCALARS | _regular(), lambda kids: (
    st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_json_trees_match_json(obj):
    assert serialize.dumps(obj) == reference(obj)


# -- element values: one np.array call against the per-entry path -------------------

def _parse(values):
    """The values as element_from_json reads them, and as the per-entry
    path alone reads them: (array, None) or (None, (type, message))."""
    out = []
    for read in (lambda v: serialize._cpx_array(v, 3, serialize._values_per_entry),
                 serialize._values_per_entry):
        try:
            out.append((serialize._finite(read(values)), None))
        except Exception as exc:  # the per-entry path's errors are the contract
            out.append((None, (type(exc), str(exc))))
    return out


def _assert_same_parse(values):
    (fast, fast_err), (slow, slow_err) = _parse(values)
    assert fast_err == slow_err
    if slow_err is None:
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("entry", [
    [-0.0, -0.0], [0.0, -0.0], [-0.0, 1], [2 ** 53 + 1, -(2 ** 53 + 3)],
    [2 ** 63 - 1, -(2 ** 63)], [True, False], [True, 0.5], [False, 2 ** 60],
    [2 ** 63, 1], [2 ** 63 + 1025, 2 ** 64 - 1], [2 ** 64, 0.5], [10 ** 300, -(10 ** 307)],
    [2 ** 1023, 1.5], [5e-324, -1e308],
])
def test_values_parse_bit_for_bit(entry):
    doc = json.loads(json.dumps([[[entry, [1.0, 0.0]], [[0.25, -0.0], entry]]] * 3))
    _assert_same_parse(doc)
    (fast, err), _ = _parse(doc)
    if bool in map(type, entry):  # JSON true and false are not numbers
        assert err == (ValueError, "matrix entries must be numbers, not "
                       f"{json.dumps(next(x for x in entry if type(x) is bool))}")
        return
    assert fast.dtype == complex
    assert math.copysign(1.0, fast[0, 0, 0].real) == math.copysign(1.0, float(entry[0]))


@pytest.mark.parametrize("values", [
    [[[["1", 0.0]]]], [[[[None, 0.0]]]], [[[[0.0, None]]]], [[[None]]], [[["ab"]]],
    [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],             # ragged rows
    [[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]],           # ragged points
    [[[1.0, 0.0]]], [[[[[1.0, 0.0]]]]], [[1.0, 0.0]], [1.0], 1.0,  # nesting depth
    [[[[1.0]]]], [[[[1.0, 0.0, 0.0]]]], [[[[]]]],            # pair lengths
    [[[[10 ** 400, 0.0]]]], [[[[0.0, -(10 ** 400)]]]],
    [[[[math.nan, 0.0]]]], [[[[0.0, math.inf]]]], [[[[-math.inf, 1]]]],
    [], {}, "values", None,
])
def test_values_refusals_match_per_entry(values):
    (_, fast_err), (_, slow_err) = _parse(values)
    assert slow_err is not None and fast_err == slow_err


@pytest.mark.parametrize("values", [[[]], [[[]]], [[[], []]]])
def test_empty_matrices_parse_like_per_entry(values):
    _assert_same_parse(values)  # empty arrays, which FnElement then refuses


_NUMBERS = (st.integers(-(2 ** 70), 2 ** 70) | st.booleans()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 2 ** 53 + 1, 2 ** 63, 2 ** 64 + 1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_regular_values_parse_bit_for_bit(npoints, dim, data):
    n = npoints * dim * dim * 2
    flat = data.draw(st.lists(_NUMBERS, min_size=n, max_size=n))
    values = np.array(flat, dtype=object).reshape(npoints, dim, dim, 2).tolist()
    _assert_same_parse(values)


def test_alg_struct_parses_like_per_entry():
    doc = serialize.element_to_json(catalog.generator("x4", 16).element,
                                    catalog.generator("x4", 16).algebra)
    struct = json.loads(json.dumps(doc["alg"]["struct"]))
    want = serialize._cpx_matrix_from_json(struct)
    got = serialize._cpx_array(struct, 2, serialize._cpx_matrix_from_json)
    assert got.tobytes() == want.tobytes()
    _, alg = serialize.element_from_json(doc)
    assert alg.struct.tobytes() == want.tobytes()


def test_regular_values_skip_the_per_entry_path(monkeypatch):
    rep = catalog.generator("circle_zeta_k1", 16)
    doc = json.loads(json.dumps(serialize.element_to_json(rep.element)))
    monkeypatch.setattr(serialize, "_values_per_entry", None)
    u, _ = serialize.element_from_json(doc)
    assert u.values.tobytes() == rep.element.values.tobytes()
