import json

import pytest

from trialg.algebra import TriAlgebra, VDASH
from trialg.algfile import AlgebraFileError, algebra_to_dict, emit, parse
from trialg.fields import GF, QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product


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
