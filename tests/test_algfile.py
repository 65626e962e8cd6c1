import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg.algebra import DASHV, TriAlgebra, VDASH, change_basis
from trialg.algfile import AlgebraFileError, algebra_to_dict, emit, parse
from trialg.extensions import cover
from trialg.fields import GF, QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product
from trialg.linalg import random_invertible

from oracles import dense_algebra_dict, json_emit, random_valid_algebra


def test_roundtrip_on_generated_files(dim2, example_cover_1):
    for alg in (abelian(3), dim2, example_cover_1, cover_abelian(2)):
        text = emit(alg)
        back = parse(text)
        assert back == alg
        assert emit(back) == text  # canonical emission is a fixed point


def test_roundtrip_prime_field():
    alg = dim2_single_product(GF(5))
    text = emit(alg)
    assert '"field": "Fp:5"' in text
    assert parse(text) == alg


def test_fractions_roundtrip():
    alg = TriAlgebra(2, QQ, {VDASH: {(0, 0): {1: QQ.parse("-2/3")}}})
    text = emit(alg)
    assert '"-2/3"' in text
    assert parse(text) == alg


def test_zero_products_omitted(dim2):
    doc = algebra_to_dict(dim2)
    assert len(doc["products"]) == 1
    entry = doc["products"][0]
    assert entry == {"op": "vdash", "i": 0, "j": 0, "value": ["0", "1"]}


def test_duplicate_entry_rejected():
    doc = {
        "field": "Q",
        "dim": 1,
        "products": [
            {"op": "vdash", "i": 0, "j": 0, "value": ["1"]},
            {"op": "vdash", "i": 0, "j": 0, "value": ["2"]},
        ],
    }
    with pytest.raises(AlgebraFileError, match="duplicate"):
        parse(json.dumps(doc))


def test_parse_error_diagnostics():
    with pytest.raises(AlgebraFileError, match="invalid JSON"):
        parse("{not json")
    with pytest.raises(AlgebraFileError, match="missing members"):
        parse(json.dumps({"field": "Q"}))
    with pytest.raises(AlgebraFileError, match="bad field tag"):
        parse(json.dumps({"field": "R", "dim": 1, "products": []}))
    base = {"field": "Q", "dim": 2, "products": [{"op": "mul", "i": 0, "j": 0, "value": ["0", "0"]}]}
    with pytest.raises(AlgebraFileError, match="unknown op"):
        parse(json.dumps(base))
    base["products"] = [{"op": "vdash", "i": 0, "j": 5, "value": ["0", "0"]}]
    with pytest.raises(AlgebraFileError, match="out of range"):
        parse(json.dumps(base))
    base["products"] = [{"op": "vdash", "i": 0, "j": 0, "value": ["0"]}]
    with pytest.raises(AlgebraFileError, match="scalar strings"):
        parse(json.dumps(base))
    base["products"] = [{"op": "vdash", "i": 0, "j": 0, "value": ["0", "1.5"]}]
    with pytest.raises(AlgebraFileError, match="value\\[1\\]"):
        parse(json.dumps(base))
    base["products"] = [{"op": "vdash", "i": 0, "j": 0}]
    with pytest.raises(AlgebraFileError, match="missing member"):
        parse(json.dumps(base))


def test_dim_zero_file():
    text = emit(TriAlgebra(0, QQ))
    alg = parse(text)
    assert alg.dim == 0


def test_bool_dimension_and_indices_rejected():
    with pytest.raises(AlgebraFileError, match="bad dim"):
        parse('{"field": "Q", "dim": true, "products": []}')
    for i, j in ((True, 0), (0, False)):
        doc = {"field": "Q", "dim": 2, "products": [{"op": "vdash", "i": i, "j": j, "value": ["0", "1"]}]}
        with pytest.raises(AlgebraFileError, match="out of range"):
            parse(json.dumps(doc))


def test_huge_prime_field_tag_rejected():
    text = '{"field": "Fp:170141183460469231731687303715884105727", "dim": 1, "products": []}'
    with pytest.raises(AlgebraFileError, match="too large"):
        parse(text)


def _rebased(alg, seed):
    return change_basis(alg, random_invertible(random.Random(seed), alg.dim, alg.field))


@st.composite
def valid_algebras(draw):
    """Random valid algebras over Q or Fp:7, half of them in a random basis
    (dense, and over Q fractional, constants)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alg = random_valid_algebra(rng, field, max_dim=5)
    return _rebased(alg, rng.randrange(2**32)) if draw(st.booleans()) else alg


def test_emit_is_the_json_encoders_text():
    """``emit`` writes the bytes of ``json.dumps(..., indent=2)`` itself,
    the same whether it returns them or writes them to a file."""
    negative = TriAlgebra(3, QQ, {VDASH: {(0, 1): {2: QQ.parse("-2/3")}, (1, 1): {0: -5, 2: 7}},
                                  DASHV: {(2, 0): {1: QQ.parse("12/35")}}})
    algebras = [
        TriAlgebra(0, QQ),
        TriAlgebra(2, QQ),
        abelian(3, GF(7)),
        negative,
        dim2_single_product(GF(7)),
        cover_abelian(1, GF(7)),
        cover(cover_abelian(1)).extension.total,
        _rebased(cover_abelian(1), 5),
        _rebased(abelian(3, GF(7)), 6),
    ]
    for alg in algebras:
        assert algebra_to_dict(alg) == dense_algebra_dict(alg)
        text = emit(alg)
        assert text == json_emit(alg)
        buf = io.StringIO()
        assert emit(alg, buf) is None and buf.getvalue() == text
    assert '"products": []' in emit(TriAlgebra(2, QQ))
    assert '"-2/3"' in emit(negative) and '"12/35"' in emit(negative)


def test_emit_to_a_file_never_holds_the_document():
    """Written to a destination, ``emit`` keeps one product's text at a
    time: its traced peak is a small fraction of the document."""
    alg = cover(cover_abelian(2, GF(7))).extension.total
    size = len(emit(alg))

    class ByteCount:
        written = 0

        def write(self, text):
            self.written += len(text)

    sink = ByteCount()
    tracemalloc.start()
    try:
        emit(alg, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == size
    assert peak < size / 10


@settings(max_examples=25, deadline=None)
@given(valid_algebras())
def test_emit_and_parse_agree_with_the_json_module(alg):
    text = emit(alg)
    assert text == json_emit(alg)
    assert parse(text) == alg


def _one_value(value):
    return json.dumps({"field": "Q", "dim": 2, "products": [{"op": "vdash", "i": 0, "j": 0, "value": value}]})


def test_zero_shortcut_keeps_every_other_reading():
    """Only the exact text "0" skips ``field.parse``; other spellings of
    zero, bad fractions and non-strings read as before."""
    for zero in ("-0", "+0", "00", "0/1", " 0", "0/-3"):
        assert parse(_one_value([zero, "1"])).products[VDASH] == {(0, 0): {1: 1}}
    assert parse(_one_value(["0", "0"])).products[VDASH] == {}
    with pytest.raises(AlgebraFileError, match=r"value\[0\]: zero denominator"):
        parse(_one_value(["0/0", "1"]))
    with pytest.raises(AlgebraFileError, match=r"value\[1\]: zero denominator"):
        parse(_one_value(["0", "1/0"]))
    for bad in (0, 0.0, False, None, [], ["0"]):
        with pytest.raises(AlgebraFileError, match=r"value\[0\] must be a string"):
            parse(_one_value([bad, "1"]))
    f7 = _one_value(["0", "7"]).replace('"Q"', '"Fp:7"')
    assert parse(f7).products[VDASH] == {}
    with pytest.raises(AlgebraFileError, match="denominator 7 is 0 mod 7"):
        parse(f7.replace('"7"', '"1/7"'))
