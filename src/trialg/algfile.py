"""Sparse text format for structure-constant algebras.

An algebra file is a JSON document with three members:

    {
      "field": "Q",                      // or "Fp:<prime>"
      "dim": 2,
      "products": [
        {"op": "vdash", "i": 0, "j": 0, "value": ["0", "1"]}
      ]
    }

Only nonzero products are listed; indices are 0-based; ``value`` is the
dense coordinate vector of e_i op e_j written as reduced fraction or
integer strings.  Duplicate (op, i, j) entries are rejected.  Emission is
canonical (operation order vdash/dashv/perp, then i, then j; zero entries
omitted), so parse(emit(x)) round-trips exactly.

Both directions work from the nonzero coordinates.  ``emit(a, out)`` is
the one writer of the document: it formats only the stored entries of each
product over a list of ``"0"`` and writes the JSON module's ``indent=2``
text of the document, one product at a time, to the text file ``out`` (or
returns it when no destination is given), so writing a large cover never
holds its whole document.  ``algebra_to_dict`` is that text read back.
Parsing skips a coordinate that is exactly ``"0"`` and hands every other
value to ``field.parse``.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .algebra import OPS, TriAlgebra
from .fields import QQ, _echo, parse_field

__all__ = ["AlgebraFileError", "algebra_to_dict", "algebra_from_dict", "emit", "parse", "load", "save"]


class AlgebraFileError(ValueError):
    pass


# Between two scalar strings of an emitted value list.
_VALUE_SEP = '",\n        "'


def scalar_strings(field, n: int, entries: dict) -> list[str]:
    """The ``n`` coordinate strings of the vector whose nonzero entries
    are ``{index: scalar}``; only those entries are formatted.  Shared by
    the file's value lists and the CLI's sparse report lines."""
    out = ["0"] * n
    to_str = field.to_str
    for k, x in entries.items():
        out[k] = to_str(x)
    return out


def algebra_to_dict(a: TriAlgebra) -> dict:
    """The document of ``a``, as ``emit`` writes it."""
    return json.loads(emit(a))


def _is_index(x: Any) -> bool:
    """A nonnegative JSON integer; ``true``/``false`` are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def algebra_from_dict(doc: Any) -> TriAlgebra:
    if not isinstance(doc, dict):
        raise AlgebraFileError("document must be a JSON object")
    missing = {"field", "dim", "products"} - set(doc)
    if missing:
        raise AlgebraFileError(f"missing members: {sorted(missing)}")
    try:
        field = parse_field(doc["field"])
    except ValueError as exc:
        raise AlgebraFileError(f"bad field tag: {exc}") from None
    dim = doc["dim"]
    if not _is_index(dim):
        raise AlgebraFileError(f"bad dim: {_echo(dim)}")
    entries = doc["products"]
    if not isinstance(entries, list):
        raise AlgebraFileError("products must be a list")
    products: dict = {op: {} for op in OPS}
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"products[{pos}]"
        if not isinstance(entry, dict):
            raise AlgebraFileError(f"{where}: entry must be an object")
        for member in ("op", "i", "j", "value"):
            if member not in entry:
                raise AlgebraFileError(f"{where}: missing member {member!r}")
        op, i, j, value = entry["op"], entry["i"], entry["j"], entry["value"]
        if op not in OPS:
            raise AlgebraFileError(f"{where}: unknown op {_echo(op)}")
        if not (_is_index(i) and _is_index(j) and i < dim and j < dim):
            raise AlgebraFileError(f"{where}: indices ({_echo(i)}, {_echo(j)}) out of range for dim {dim}")
        if (op, i, j) in seen:
            raise AlgebraFileError(f"{where}: duplicate product entry ({op}, {i}, {j})")
        seen.add((op, i, j))
        if not isinstance(value, list) or len(value) != dim:
            raise AlgebraFileError(f"{where}: value must be a list of {dim} scalar strings")
        vec = {}
        for k, text in enumerate(value):
            if text == "0":
                continue
            if not isinstance(text, str):
                raise AlgebraFileError(f"{where}: value[{k}] must be a string")
            try:
                scalar = field.parse(text)
            except ValueError as exc:
                raise AlgebraFileError(f"{where}: value[{k}]: {exc}") from None
            if scalar:
                vec[k] = scalar
        if vec:
            products[op][(i, j)] = vec
    return TriAlgebra(dim, field, products)


def emit(a: TriAlgebra, out: TextIO | None = None) -> str | None:
    """The text of the document of ``a``, as ``json.dumps(doc, indent=2) +
    "\\n"`` writes it, formatted one product at a time from ``a.products``:
    the scalar strings need no escaping, so each value list is one join.
    Each product's text is written to ``out`` as soon as it is formatted,
    so the whole document is never held; without ``out`` the text is
    returned."""
    parts: list[str] = []
    write = parts.append if out is None else out.write
    write(f'{{\n  "field": {json.dumps(a.field.name)},\n  "dim": {a.dim},\n  "products": [')
    sep = "\n"
    for op in OPS:
        table = a.products[op]
        for (i, j) in sorted(table):
            value = _VALUE_SEP.join(scalar_strings(a.field, a.dim, table[(i, j)]))
            write(f'{sep}    {{\n      "op": "{op}",\n      "i": {i},\n      "j": {j},\n'
                  f'      "value": [\n        "{value}"\n      ]\n    }}')
            sep = ",\n"
    write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
    return "".join(parts) if out is None else None


def parse(text: str | bytes) -> TriAlgebra:
    """The algebra of a file's text, or of its bytes read as UTF-8."""
    try:  # JSON integers are read by the scalar parser, for its digit-limit error
        text = text if isinstance(text, str) else text.decode("utf-8")
        doc = json.loads(text, parse_int=lambda digits: QQ.parse(digits).numerator)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting and over-long ints
        raise AlgebraFileError(f"invalid JSON: {exc}") from None
    return algebra_from_dict(doc)


def load(path: str) -> TriAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise AlgebraFileError(f"invalid JSON: {exc}") from None
    return parse(text)


def save(path: str, a: TriAlgebra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        emit(a, fh)
