import contextlib
import functools
import io
import json
import math
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tenfold import basespace, catalog, cli, serialize, toeplitz
from tenfold.basespace import FnElement, sample_space
from tenfold.symclass import neutral


def run(args):
    return cli.main(args)


def write_element(path, base, values):
    u = FnElement(base, values)
    path.write_text(json.dumps(serialize.element_to_json(u)))
    return u


@pytest.fixture
def zeta_pair(tmp_path):
    q = sample_space("twopoints", involution="id")
    p = tmp_path / "w.json"
    write_element(p, q, np.stack([np.eye(2, dtype=complex), neutral(0, 1)]))
    return p


def test_classify_roundtrip_deterministic(tmp_path, capsys):
    base = sample_space("circle", 32, "zeta")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    p = tmp_path / "u.json"
    write_element(p, base, z[:, None, None] * np.eye(1))
    assert run(["classify", str(p)]) == 0
    first = capsys.readouterr().out
    assert run(["classify", str(p)]) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    classes = {row["class"]: row for row in report["classes"]}
    assert classes[1]["ok"] and classes[1]["signature"] == {
        "winding": 1, "det_parity": 0}
    assert classes["KU1"]["ok"]


def test_classify_reingests_emitted_element(tmp_path, capsys):
    assert run(["catalog", "--emit", "circle_zeta_k2",
                "--out", str(tmp_path / "w2.json")]) == 0
    assert run(["classify", str(tmp_path / "w2.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    row = [r for r in report["classes"] if r["class"] == 2][0]
    assert row["ok"]
    assert row["signature"] == {"pf_parity": 0, "pf_parity_mid": 1}


def test_classify_membership_failure_exit(tmp_path, capsys):
    base = sample_space("point")
    p = tmp_path / "bad.json"
    write_element(p, base, np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex))
    assert run(["classify", str(p)]) == 2


def test_boundary_command(zeta_pair, tmp_path, capsys):
    out = tmp_path / "res.json"
    for lift in ("natural", "taper0"):
        code = run(["boundary", str(zeta_pair), "--ses", "circle-zeta",
                    "--class", "0", "--lift", lift, "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["class"] == -1
        assert res["signature"] == {"winding_half": 1}
    # the former aliases of natural are usage errors: malformed input, exit 4
    for lift in ("radial", "arclinear"):
        with pytest.raises(SystemExit) as exc:
            run(["boundary", str(zeta_pair), "--ses", "circle-zeta",
                 "--class", "0", "--lift", lift])
        assert exc.value.code == 4


# an unknown --lift is covered by test_boundary_command
@pytest.mark.parametrize("args", [
    ["boundary", "x.json", "--ses", "annulus", "--class", "0"],
    ["boundary", "x.json", "--ses", "circle-zeta"],
    ["classify"],
    [],
])
def test_usage_errors_exit_4(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: tenfold") and "error: " in err


@pytest.mark.parametrize("args", [["--help"], ["boundary", "--help"]])
def test_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tenfold")


def test_boundary_membership_failure(tmp_path, capsys):
    q = sample_space("twopoints", involution="id")
    p = tmp_path / "bad.json"
    write_element(p, q, np.stack([np.eye(2, dtype=complex),
                                  2.0 * np.eye(2, dtype=complex)]))
    assert run(["boundary", str(p), "--ses", "circle-zeta", "--class", "0"]) == 2
    # a refusal that carries residuals prints them after the message
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: element fails class-0 membership \{'unitary': .*\}\n", err)


def test_boundary_toeplitz(tmp_path, capsys):
    assert run(["catalog", "--emit", "shift_u_k2",
                "--out", str(tmp_path / "v2.json")]) == 0
    code = run(["boundary", str(tmp_path / "v2.json"), "--ses", "toeplitz",
                "--class", "2"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert res["class"] == 1 and res["signature"] == {"det_parity": 1}


@pytest.mark.parametrize("name", ["x0", "x3", "x5", "x6", "sphere_ko0",
                                  "sphere_ko6", "sphere3_ko5"])
def test_boundary_basepoint_not_skew_exits_membership(name, tmp_path, capsys):
    # class 2 reads the Pfaffian of the pinned basepoint value, which these
    # elements of even dimension do not make skew; but they live over their
    # own grids, not over circle-id's quotient (a point), and boundary checks
    # the base before membership.  test_classify_reports_basepoint_not_skew
    # reads the non-skew basepoint
    p = tmp_path / "u.json"
    assert run(["catalog", "--emit", name, "--resolution", "16", "--out", str(p)]) == 0
    assert run(["boundary", str(p), "--ses", "circle-id", "--class", "2"]) == 2
    # the refusal carries no residuals, so nothing follows the message
    assert capsys.readouterr().err == "error: input does not live over the SES quotient\n"


@pytest.mark.parametrize("ses", ["disk-id", "circle-zeta"])
def test_boundary_refuses_non_contraction(ses, tmp_path, capsys):
    """A class -1 loop of norm 1 + 1e-6 passes membership at --tol 1e-5 but
    is no contraction: every SES refuses it with the same message, and
    nothing follows the message."""
    q = basespace.ses_registry(ses).quotient
    z = q.points[:, 0] + 1j * (q.points[:, 1] if q.points.shape[1] > 1 else 0)
    p = tmp_path / "u.json"
    write_element(p, q, (1 + 1e-6) * z[:, None, None] * np.eye(1))
    assert run(["boundary", str(p), "--ses", ses, "--class", "-1", "--tol", "1e-5"]) == 2
    assert capsys.readouterr().err == "error: input values must be contractions\n"


def test_classify_reports_basepoint_not_skew(tmp_path, capsys):
    # the class-2 row is reported as a failed membership, not dropped
    for name in ("x0", "x3", "x5", "x6", "sphere_ko0", "sphere_ko6",
                 "sphere3_ko5"):
        p = tmp_path / f"{name}.json"
        assert run(["catalog", "--emit", name, "--resolution", "16",
                    "--out", str(p)]) == 0
        assert run(["classify", str(p)]) == 0
        rows = [r for r in json.loads(capsys.readouterr().out)["classes"]
                if r["class"] == 2]
        assert len(rows) == 1 and not rows[0]["ok"], name
        assert rows[0]["residuals"]["lambda_class"] == 1.0
        assert "not skew" in rows[0]["residuals"]["lambda_detail"]
        assert "signature" not in rows[0]
        assert run(["classify", str(p), "--class", "2"]) == 2
        capsys.readouterr()


def test_unknown_class_id_exits_io(tmp_path, capsys):
    p = tmp_path / "x0.json"
    assert run(["catalog", "--emit", "x0", "--resolution", "16", "--out", str(p)]) == 0
    v = tmp_path / "v.json"
    assert run(["catalog", "--emit", "shift_u_k1", "--out", str(v)]) == 0
    capsys.readouterr()
    for token in ("7", "abc", "-2", "KU2", ""):
        for argv in (["classify", str(p)], ["boundary", str(p), "--ses", "circle-id"],
                     ["boundary", str(v), "--ses", "toeplitz"]):
            assert run(argv + ["--class", token]) == 4, (argv, token)
            out = capsys.readouterr()
            assert out.out == ""
            assert "unknown symmetry class" in out.err and "KU1" in out.err


def test_bad_resolution_exits_io(tmp_path, capsys):
    p = tmp_path / "k1.json"
    assert run(["catalog", "--emit", "circle_zeta_k1", "--resolution", "16",
                "--out", str(p)]) == 0
    capsys.readouterr()
    for token in ("7", "-5", "0"):
        for argv in (["catalog", "--emit", "circle_zeta_k1"],
                     ["catalog", "--emit", "x0"],
                     ["boundary", str(p), "--ses", "disk-zeta", "--class", "1"],
                     ["boundary", str(p), "--ses", "circle-zeta", "--class", "1"]):
            assert run(argv + ["--resolution", token]) == 4, (argv, token)
            out = capsys.readouterr()
            assert out.out == "" and "resolution" in out.err, (argv, token)
    # the default is still taken when no resolution is given
    assert run(["catalog", "--emit", "circle_zeta_k1", "--out", str(p)]) == 0


def test_unreadable_invariant_exits_unsupported(tmp_path, capsys):
    # z^3 on 8 points passes membership, but its det phase steps by 3pi/4
    base = sample_space("circle", 8, "id")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    p = tmp_path / "z3.json"
    write_element(p, base, (z ** 3)[:, None, None] * np.eye(1))
    assert run(["classify", str(p)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "phase step exceeds pi/2" in out.err
    # the disk image of z^4 is a valid class-6 element whose Chern links
    # cannot be read on an 8 x 8 grid
    write_element(p, base, (z ** 4)[:, None, None] * np.eye(1))
    assert run(["boundary", str(p), "--ses", "disk-id", "--class", "-1",
                "--resolution", "8"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "resolution too coarse" in out.err


def test_coarse_phase_step_refusal_names_step_and_grid(tmp_path, capsys):
    # the class-4 circle-zeta anchor under taper0 at 64 points: its image's
    # det phase steps past pi/2, and the refusal says by how much and where
    p = tmp_path / "k4.json"
    write_element(p, sample_space("twopoints", involution="id"),
                  np.stack([np.eye(4, dtype=complex), neutral(4, 1)]))
    assert run(["boundary", str(p), "--ses", "circle-zeta", "--class", "4",
                "--lift", "taper0", "--resolution", "64"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert re.search(r"determinant phase step exceeds pi/2: resolution too coarse "
                     r"\(largest step \d\.\d{4} on 64 grid points\)", out.err), out.err


def test_io_error_exit_codes(tmp_path):
    assert run(["classify", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "junk.json"
    bad.write_text("{\"not\": \"an element\"}")
    assert run(["classify", str(bad)]) == 4
    # not UTF-8, and an integer literal past the interpreter's digit limit
    for data in (b"\xff\xfe{}", b"{\"values\": [" + b"1" * 5000 + b"]}"):
        bad.write_bytes(data)
        assert run(["classify", str(bad)]) == 4
        assert run(["boundary", str(bad), "--ses", "circle-zeta", "--class", "0"]) == 4


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    p = tmp_path / "w.json"
    assert run(["catalog", "--emit", "circle_zeta_k2", "--resolution", "16",
                "--out", str(p)]) == 0
    assert run(["classify", str(p)]) == 0
    every = capsys.readouterr().out
    assert run(["classify", str(p), "--class", "2", "--tol", "10"]) == 0
    assert [row["class"] for row in json.loads(capsys.readouterr().out)["classes"]] == [2]
    assert run(["classify", str(p)]) == 0
    assert capsys.readouterr().out == every
    assert run(["catalog"]) == 0  # no --emit or --out left from the first call
    assert "entries" in json.loads(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    listing = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in listing["entries"]}
    assert "x0" in names and "torus_bott" in names
    assert len(names) >= 24


def test_verify_only_filter(capsys):
    assert run(["verify", "--only", "pfaffian"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1..1")
    assert "ok 1 - pfaffian" in out


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "qc_relation_oracle" in out


def _circle_doc():
    base = sample_space("circle", 16, "zeta")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    return serialize.element_to_json(FnElement(base, z[:, None, None] * np.eye(1)))


def _nan_value(doc):
    doc["values"][3][0][0][0] = float("nan")


def _pinned_past_end(doc):
    doc["base"]["pinned"] = [1000000]


def _pinned_negative(doc):
    doc["base"]["pinned"] = [-1]


def _base_not_object(doc):
    doc["base"] = [1]


def _pinned_bool(doc):
    doc["base"]["pinned"] = [True]


def _alg_dim_zero(doc):
    doc["alg"] = {"dim_alg": 0, "struct": [[[1.0, 0.0]]], "label": "custom"}


def _alg_struct_empty(doc):
    doc["alg"] = {"dim_alg": 1, "struct": [], "label": "custom"}


def _alg_label_not_string(doc):
    doc["alg"] = {"dim_alg": 1, "struct": [[[1.0, 0.0]]], "label": [0]}


def _resolution_huge(doc):
    doc["base"]["resolution"] = 10 ** 12


def _resolution_infinite(doc):
    doc["base"]["resolution"] = float("inf")


def _value_beyond_float(doc):
    doc["values"][3][0][0][1] = 10 ** 400


def _alg_struct_beyond_float(doc):
    doc["alg"] = {"dim_alg": 1, "struct": [[[10 ** 400, 0.0]]], "label": "custom"}


def _disk_one_axis(doc):
    doc["base"].update(kind="disk", resolution=[33])


def _disk_no_axes(doc):
    doc["base"].update(kind="disk", resolution=[])


def _sphere2_one_axis(doc):
    doc["base"].update(kind="sphere2", resolution=[8])


def _torus2_one_axis(doc):
    doc["base"].update(kind="torus2", resolution=[8], involution="id")


def _disk_three_axes(doc):
    # [4, 8] names a disk of 32 points, as many as the values: the 9 must
    # not be dropped
    doc["base"].update(kind="disk", resolution=[4, 8, 9])
    doc["values"] = doc["values"] * 2


# int() truncated or parsed these to 16 and 1, which exited 0
def _resolution_fraction(doc):
    doc["base"]["resolution"] = 16.9


def _resolution_list_fraction(doc):
    doc["base"]["resolution"] = [16.2]


def _resolution_string(doc):
    doc["base"]["resolution"] = "16"


def _alg_dim_fraction(doc):
    doc["alg"] = {"dim_alg": 1.5, "struct": [[[1.0, 0.0]]], "label": "custom"}


def _alg_dim_bool(doc):
    doc["alg"] = {"dim_alg": True, "struct": [[[1.0, 0.0]]], "label": "custom"}


def _alg_dim_string(doc):
    doc["alg"] = {"dim_alg": "1", "struct": [[[1.0, 0.0]]], "label": "custom"}


def _dim_too_large(doc):
    doc["dim"] = 5


def _dim_not_int(doc):
    doc["dim"] = "two"


def _dim_bool(doc):
    doc["dim"] = True  # equal to 1, the size of the values, but not an int


def _dim_float(doc):
    doc["dim"] = 1.0


# a label that names a known algebra keys the catalog rows: these exited 0,
# reading class 0 half_trace 1 from the scalar rows and KU0
# endpoint_half_trace -1 from the qc2-tr rows
def _scalar_label_on_blocks(doc):
    rep = catalog.generator("circle_zeta_k4", 16)
    doc.update(serialize.element_to_json(rep.element, rep.algebra))
    doc["alg"] = {"dim_alg": 2, "label": "scalar",
                  "struct": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


def _qc2_tr_label_on_x2(doc):
    rep = catalog.generator("x2", 16)
    doc.update(serialize.element_to_json(rep.element, rep.algebra))
    doc["alg"]["label"] = "qc2-tr"


@pytest.mark.parametrize("spoil", [_nan_value, _pinned_past_end, _pinned_negative,
                                   _base_not_object, _pinned_bool, _alg_dim_zero,
                                   _alg_struct_empty, _alg_label_not_string,
                                   _resolution_huge, _resolution_infinite,
                                   _value_beyond_float, _alg_struct_beyond_float,
                                   _disk_one_axis, _disk_no_axes, _sphere2_one_axis,
                                   _torus2_one_axis, _disk_three_axes, _dim_too_large,
                                   _dim_not_int, _dim_bool, _dim_float,
                                   _resolution_fraction, _resolution_list_fraction,
                                   _resolution_string, _alg_dim_fraction, _alg_dim_bool,
                                   _alg_dim_string, _scalar_label_on_blocks,
                                   _qc2_tr_label_on_x2])
def test_malformed_element_exits_io(spoil, tmp_path, capsys):
    doc = _circle_doc()
    spoil(doc)
    with pytest.raises(ValueError):
        serialize.element_from_json(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(["classify", str(p)]) == 4
    assert capsys.readouterr().out == ""


def _value_true(doc):
    doc["values"][3][0][0][0] = True  # np.array reads the values as float64


def _value_false_among_ints(doc):
    doc["values"] = [[[[1, 0]]]] * 15 + [[[[False, 1]]]]  # ... as int64


def _values_all_bool(doc):
    doc["values"] = [[[[True, False]]]] * 16  # ... as bool


def _value_bool_per_entry(doc):
    doc["values"][2][0][0][0] = 2 ** 64  # past int64: the per-entry path
    doc["values"][3][0][0][1] = False


def _alg_struct_bool(doc):
    doc["alg"] = {"dim_alg": 1, "struct": [[[True, False]]], "label": "custom"}


def _alg_struct_mixed(doc):
    doc["alg"] = {"dim_alg": 1, "struct": [[[1.0, False]]], "label": "custom"}


@pytest.mark.parametrize("spoil", [_value_true, _value_false_among_ints, _values_all_bool,
                                   _value_bool_per_entry, _alg_struct_bool,
                                   _alg_struct_mixed])
def test_json_booleans_are_not_numbers(spoil, tmp_path, capsys):
    doc = _circle_doc()
    spoil(doc)
    text = json.dumps(doc)
    with pytest.raises(ValueError, match="must be numbers, not (true|false)"):
        serialize.element_from_json(doc)
    p = tmp_path / "bool.json"
    p.write_text(text)
    assert run(["classify", str(p)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert ("not true" in err or "not false" in err) and "Traceback" not in err


def test_integral_float_resolution_reads(tmp_path, capsys):
    texts = []
    for name, res in (("int.json", 16), ("float.json", 16.0), ("list.json", [16.0])):
        doc = _circle_doc()
        doc["base"]["resolution"] = res
        doc["alg"] = {"dim_alg": 1.0, "struct": [[[1.0, 0.0]]], "label": "custom"}
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        assert run(["classify", str(p)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]


def test_dim_field_is_optional(tmp_path, capsys):
    doc = _circle_doc()
    nodim = {k: v for k, v in doc.items() if k != "dim"}
    texts = []
    for name, d in (("dim.json", doc), ("nodim.json", nodim)):
        p = tmp_path / name
        p.write_text(json.dumps(d))
        assert run(["classify", str(p)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_overflowing_residuals_print_strict_json(tmp_path, capsys):
    doc = _circle_doc()
    doc["values"][3][0][0][0] = 1e200
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert run(["classify", str(p)]) == 2

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["classes"][0]["residuals"]["unitary"] is None


def _exact_doc(tmp_path, name="shift_u_k2"):
    p = tmp_path / f"{name}.json"
    assert run(["catalog", "--emit", name, "--out", str(p)]) == 0
    return json.loads(p.read_text())


def test_infinite_exact_entry_exits_io(tmp_path, capsys):
    doc = _exact_doc(tmp_path)
    doc["symbol"]["1"][0][1][0] = float("inf")
    with pytest.raises(ValueError):
        toeplitz.element_from_json(doc)
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(doc))
    assert run(["boundary", str(p), "--ses", "toeplitz", "--class", "2"]) == 4
    assert capsys.readouterr().out == ""


# Spoils of the class-1 shift generator's document that were once read as
# valid: int() truncated a fractional dim or window, parsed a string and took
# a bool, and Fraction read an entry [true, false] as 1, 0
_EXACT_SPOILS = {
    "dim-fraction": lambda doc: doc.update(dim=1.5),
    "dim-string": lambda doc: doc.update(dim="1"),
    "dim-true": lambda doc: doc.update(dim=True),
    "window-fraction": lambda doc: doc.update(window=0.5),
    "window-false": lambda doc: doc.update(window=False),
    "entry-bool": lambda doc: doc["symbol"]["1"][0].__setitem__(0, [True, False]),
}


@pytest.mark.parametrize("spoil", sorted(_EXACT_SPOILS))
def test_malformed_exact_integers_and_bools_exit_io(spoil, tmp_path, capsys):
    doc = _exact_doc(tmp_path, "shift_u_k1")
    _EXACT_SPOILS[spoil](doc)
    with pytest.raises(ValueError, match="must be (an integer|numbers)"):
        toeplitz.element_from_json(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["boundary", str(p), "--ses", "toeplitz", "--class", "1"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "malformed shift element" in out.err
    assert "Traceback" not in out.err


# Replacement values for the fuzz test: wrong types, out-of-range and
# non-finite numbers (json.dumps writes these as Infinity/NaN, which the
# reader accepts), and containers of the wrong shape.
_FUZZ_VALUES = [None, True, "x", "1/3", -1, 0, 7, 10 ** 12, 2.5, 1e308,
                float("inf"), float("-inf"), float("nan"), [], [0], [[0, 0]],
                {}, {"a": 1}]


def _json_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _json_paths(child, path + (key,))


def _fuzzed(doc, rng, count):
    """Seeded spoilt copies of a JSON document, as text: truncations, and
    one field replaced or deleted.  Fields are drawn by their path with
    list indices merged, so the few base fields weigh as much as the many
    matrix entries."""
    text = json.dumps(doc)
    fields = {}
    for path in _json_paths(doc):
        shape = tuple("*" if isinstance(k, int) else k for k in path)
        fields.setdefault(shape, []).append(path)
    shapes = sorted(fields, key=repr)
    for _ in range(count):
        how = rng.integers(3)
        if how == 0:
            yield text[: rng.integers(len(text))]
            continue
        group = fields[shapes[rng.integers(len(shapes))]]
        *head, last = group[rng.integers(len(group))]
        bad = json.loads(text)
        node = bad
        for key in head:
            node = node[key]
        if how == 1:
            node[last] = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
        else:
            del node[last]
        yield json.dumps(bad)


def test_cli_fuzz_exits_with_documented_codes(tmp_path):
    rng = np.random.default_rng(5)
    p = tmp_path / "fuzz.json"
    grid = tmp_path / "x3.json"
    assert run(["catalog", "--emit", "x3", "--resolution", "8",
                "--out", str(grid)]) == 0
    cases = [(json.loads(grid.read_text()), ["classify", str(p)], 60)]
    for name, cls in (("shift_u_k2", "2"), ("calkin_k1", "1")):
        cases.append((_exact_doc(tmp_path, name),
                      ["boundary", str(p), "--ses", "toeplitz", "--class", cls], 30))
    for doc, argv, count in cases:
        for text in _fuzzed(doc, rng, count):
            p.write_text(text)
            with np.errstate(all="ignore"):
                assert run(argv) in (0, 2, 3, 4), text


def _primes(count, below=25000):
    sieve = np.ones(below, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(below) + 1):
        sieve[p * p::p] = False
    return np.flatnonzero(sieve)[:count].tolist()


def _big_matrix(n, bits):
    """n x n exact entries whose parts are random integers of exactly
    `bits` bits."""
    rng = random.Random(7)

    def big():
        return str(rng.getrandbits(bits) | 1 << (bits - 1))
    return [[[big(), big()] for _ in range(n)] for _ in range(n)]


# Tiny documents that ask for huge exact work: a symbol power of 100000 (a
# 200001-order first product), a dim of 10**6 (through one(dim)), an
# exponent that Fraction would expand to ten million digits, and an
# order-48 matrix of entries 1/p over distinct primes, whose common
# denominator has 29,174 bits.  Not tiny, but as slow without a bound: a
# dense order-64 matrix of 4,000-bit integers (9.9 MB).
_OVERSIZED_EXACT = {
    "denominator": {"dim": 48, "window": 0, "correction": [], "symbol": {"0": [
        [[f"1/{p}", "0"] for p in row]
        for row in np.reshape(_primes(48 * 48), (48, 48)).tolist()]}},
    "power": {"dim": 1, "window": 0, "correction": [],
              "symbol": {"100000": [[["1", "0"]]]}},
    "dim": {"dim": 10 ** 6, "window": 0, "correction": [], "symbol": {}},
    "exponent": {"dim": 1, "window": 0, "correction": [],
                 "symbol": {"1": [[["1e10000000", "0"]]]}},
    "numerator": {"dim": 64, "window": 0, "correction": [],
                  "symbol": {"0": _big_matrix(64, 4000)}},
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED_EXACT))
def test_oversized_exact_document_exits_io_quickly(name, tmp_path, capsys):
    import time
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(_OVERSIZED_EXACT[name]))
    t0 = time.perf_counter()
    assert run(["boundary", str(p), "--ses", "toeplitz", "--class", "1"]) == 4
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == ""


def test_exact_entry_exponents_within_bound_parse(tmp_path):
    doc = _exact_doc(tmp_path)
    top = toeplitz.MAX_EXACT_EXPONENT
    for text, want in (("25e-1", toeplitz.Fraction(5, 2)),
                       ("-3/7", toeplitz.Fraction(-3, 7)), (f"1E{top}", 10 ** top)):
        doc["symbol"]["1"][0][1][0] = text
        assert toeplitz.element_from_json(doc).symbol[1][0, 1].re == want
    doc["symbol"]["1"][0][1][0] = f"1e-{top + 1}"
    with pytest.raises(ValueError):
        toeplitz.element_from_json(doc)


def test_exact_common_denominator_within_bound_parses(tmp_path):
    doc = _exact_doc(tmp_path)
    bits = toeplitz.MAX_EXACT_DENOMINATOR_BITS
    doc["symbol"]["1"][0][1][0] = edge = f"1/{2 ** (bits - 1)}"
    assert toeplitz.element_from_json(doc).symbol[1][0, 1].re == toeplitz.Fraction(edge)
    doc["symbol"]["1"][0][1][0] = f"1/{2 ** bits}"
    with pytest.raises(ValueError, match="common denominator"):
        toeplitz.element_from_json(doc)
    # the bound holds for the whole element: 3**100 (159 bits) and 5**100
    # (233 bits) each parse, but not in two matrices of one element
    doc["symbol"]["1"][0][1][0] = f"1/{5 ** 100}"
    toeplitz.element_from_json(doc)
    doc["symbol"]["1"][0][1][0] = "0"
    doc["symbol"]["-1"][1][0][0] = f"1/{3 ** 100}"
    toeplitz.element_from_json(doc)
    doc["symbol"]["1"][0][1][0] = f"1/{5 ** 100}"
    with pytest.raises(ValueError, match="common denominator"):
        toeplitz.element_from_json(doc)


def test_exact_numerator_within_bound_parses(tmp_path):
    doc = _exact_doc(tmp_path)
    bits = toeplitz.MAX_EXACT_NUMERATOR_BITS
    edge = 1 - 2 ** bits
    doc["symbol"]["1"][0][1] = [str(edge), 1.7976931348623157e308]
    z = toeplitz.element_from_json(doc).symbol[1][0, 1]
    assert (z.re, z.im) == (edge, toeplitz.Fraction(1.7976931348623157e308))
    doc["symbol"]["1"][0][1][1] = f"{2 ** bits}/3"
    with pytest.raises(ValueError, match="numerator"):
        toeplitz.element_from_json(doc)


# -- the CLI contract as a property ----------------------------------------------

# grid emits the contract is checked on: a circle, an interval with its
# algebra, and the Chern generators, whose signatures come from the
# reader's own frames
_CONTRACT_EMITS = ("circle_zeta_k1", "x0", "torus_bott", "sphere_ko6")

_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
                | st.floats() | st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@functools.cache
def _emitted(name):
    """`catalog --emit name --resolution 16`, as text."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "--emit", name, "--resolution", "16",
                         "--out", f"{d}/e.json"]) == 0
        with open(f"{d}/e.json") as fh:
            return fh.read()


def _mutate(draw, doc):
    """doc with one mutation: an entry or all values changed, a base field
    or the dim replaced, the pinned list redrawn, a key dropped, or a
    top-level field of the wrong type."""
    values, base = doc["values"], doc["base"]
    # most draws keep the document readable, so that membership and the
    # invariant readers see them
    kind = draw(st.sampled_from(["entry", "entry", "noise", "noise", "noise", "base",
                                 "dim", "pinned", "drop", "type"]))
    if kind == "entry":
        p = draw(st.integers(0, len(values) - 1))
        i, j = draw(st.integers(0, doc["dim"] - 1)), draw(st.integers(0, doc["dim"] - 1))
        values[p][i][j][draw(st.integers(0, 1))] = draw(st.floats(-2, 2) | _JSON)
    elif kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        a = np.array(values)
        doc["values"] = (a + draw(st.sampled_from([1e-12, 1e-6, 1e-3, 3e-2, 0.3]))
                         * rng.standard_normal(a.shape)).tolist()
    elif kind == "base":
        base[draw(st.sampled_from(sorted(base)))] = draw(_JSON)
    elif kind == "dim":
        doc["dim"] = draw(_JSON | st.integers(0, 8))
    elif kind == "pinned":
        base["pinned"] = draw(st.lists(st.integers(-2, len(values) + 2), max_size=3))
    elif kind == "drop":
        owner = draw(st.sampled_from([doc, base] + ([doc["alg"]] if "alg" in doc else [])))
        del owner[draw(st.sampled_from(sorted(owner)))]
    else:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON)
    return doc


@st.composite
def _mutated_emit(draw):
    return _mutate(draw, json.loads(_emitted(draw(st.sampled_from(_CONTRACT_EMITS)))))


def _assert_contract(argv, doc):
    """cli.main(argv) on doc's file exits 0, 2, 3 or 4, lets no exception
    out, and prints nothing or one JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/doc.json"
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], path, *argv[1:]])
    assert code in (0, 2, 3, 4), err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())


def _spoiled_emit(name, entry):
    """The emit of name with the real part of its first value entry replaced."""
    doc = json.loads(_emitted(name))
    doc["values"][0][0][0][0] = entry
    return doc


_TOLS = st.sampled_from([[], ["--tol", "1e-2"], ["--tol", "1"]])


# the two inputs whose overflow and zero division once printed a RuntimeWarning
@example(doc=_spoiled_emit("sphere_ko6", -9.9e168), tol=[])
@example(doc=_spoiled_emit("circle_zeta_k1", 0.0), tol=["--tol", "1"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_mutated_emit(), tol=_TOLS)
def test_classify_keeps_the_cli_contract_on_mutated_emits(doc, tol):
    """Whatever a mutated emit holds, classify exits 0, 2, 3 or 4, no
    exception escapes cli.main, and stdout is empty or one JSON document."""
    _assert_contract(["classify", *tol], doc)


def _disk_id_loop_z():
    quotient = basespace.ses_registry("disk-id", 16).quotient
    z = quotient.points[:, 0] + 1j * quotient.points[:, 1]
    return serialize.element_to_json(FnElement(quotient, z[:, None, None] * np.eye(1)))


def _two_point(ses, a, b):
    quotient = basespace.ses_registry(ses).quotient
    return serialize.element_to_json(FnElement(quotient, np.stack([a, b]).astype(complex)))


# boundary sources the contract is checked on, each with the arguments that
# map it: the class -1 loop z on the disk, the class-1 circle generator on
# the disk-zeta quotient, and the two-point even-class anchors
_BOUNDARY_SOURCES = {
    "disk-id z": (["--ses", "disk-id", "--class", "-1", "--resolution", "16"],
                  _disk_id_loop_z),
    "disk-zeta k1": (["--ses", "disk-zeta", "--class", "1", "--resolution", "16"],
                     lambda: json.loads(_emitted("circle_zeta_k1"))),
    "circle-zeta 0": (["--ses", "circle-zeta", "--class", "0"],
                      lambda: _two_point("circle-zeta", np.eye(2), neutral(0, 1))),
    "circle-zeta 4": (["--ses", "circle-zeta", "--class", "4"],
                      lambda: _two_point("circle-zeta", np.eye(4), neutral(4, 1))),
    "circle-sigma 2": (["--ses", "circle-sigma", "--class", "2"],
                       lambda: _two_point("circle-sigma", np.eye(2), -np.eye(2))),
    "circle-sigma 6": (["--ses", "circle-sigma", "--class", "6"],
                       lambda: _two_point("circle-sigma", np.eye(2), -np.eye(2))),
}


@st.composite
def _mutated_source(draw):
    args, make = _BOUNDARY_SOURCES[draw(st.sampled_from(sorted(_BOUNDARY_SOURCES)))]
    return args, _mutate(draw, make())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(source=_mutated_source(), lift=st.sampled_from(["natural", "taper0"]), tol=_TOLS)
def test_boundary_keeps_the_cli_contract_on_mutated_sources(source, lift, tol):
    """The same contract for boundary, through either lift."""
    args, doc = source
    _assert_contract(["boundary", *args, "--lift", lift, *tol], doc)


@pytest.mark.parametrize("name, entry, tol, code, err", [
    ("sphere_ko6", -9.9e168, [], 2, ""),
    ("sphere_ko6", -9.9e168, ["--tol", "0.3"], 2, ""),
    ("circle_zeta_k1", 0.0, ["--tol", "1"], 3,
     "error: cannot read the invariants: determinant vanishes at grid point 0\n"),
    ("circle_zeta_k1", 5e-324, ["--tol", "1"], 3,
     "error: cannot read the invariants: determinant phase step is not finite "
     "from grid point 0 to 1\n"),
    ("circle_zeta_k1", 5e-324, [], 2, ""),
])
def test_classify_refuses_extreme_entries_without_warnings(
        name, entry, tol, code, err, tmp_path, capsys):
    """An entry that overflows the membership products, a zero determinant
    and a 5e-324 one are refused by exit code and message, and no
    RuntimeWarning (an error in this suite) gets out."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(_spoiled_emit(name, entry)))
    capsys.readouterr()
    assert run(["classify", str(p), *tol]) == code
    out = capsys.readouterr()
    assert out.err == err
    if code == 2:  # the overflowing residuals are written as null
        rows = json.loads(out.out)["classes"]
        assert not any(r["ok"] for r in rows)
        if entry != 5e-324:
            assert all(r["residuals"]["unitary"] is None for r in rows)
