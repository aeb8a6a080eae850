import json
import math
import random

import numpy as np
import pytest

from tenfold import cli, serialize, toeplitz
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
    code = run(["boundary", str(zeta_pair), "--ses", "circle-zeta",
                "--class", "0", "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["class"] == -1
    assert res["signature"] == {"winding_half": 1}


def test_boundary_membership_failure(tmp_path):
    q = sample_space("twopoints", involution="id")
    p = tmp_path / "bad.json"
    write_element(p, q, np.stack([np.eye(2, dtype=complex),
                                  2.0 * np.eye(2, dtype=complex)]))
    assert run(["boundary", str(p), "--ses", "circle-zeta", "--class", "0"]) == 2


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
    # elements of even dimension do not make skew
    p = tmp_path / "u.json"
    assert run(["catalog", "--emit", name, "--resolution", "16", "--out", str(p)]) == 0
    assert run(["boundary", str(p), "--ses", "circle-id", "--class", "2"]) == 2
    assert "skew" in capsys.readouterr().err


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


@pytest.mark.parametrize("spoil", [_nan_value, _pinned_past_end, _pinned_negative,
                                   _base_not_object, _pinned_bool, _alg_dim_zero,
                                   _alg_struct_empty, _alg_label_not_string,
                                   _resolution_huge, _resolution_infinite,
                                   _value_beyond_float, _alg_struct_beyond_float])
def test_malformed_element_exits_io(spoil, tmp_path, capsys):
    doc = _circle_doc()
    spoil(doc)
    with pytest.raises(ValueError):
        serialize.element_from_json(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(["classify", str(p)]) == 4
    assert capsys.readouterr().out == ""


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
