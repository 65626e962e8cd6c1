import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trialg.algfile import emit, parse
from trialg.cli import main
from trialg.fields import GF, QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product


@pytest.fixture
def dim2_file(tmp_path):
    path = tmp_path / "dim2.json"
    path.write_text(emit(dim2_single_product()))
    return str(path)


@pytest.fixture
def abelian2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(emit(abelian(2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            pairs[key] = val
    return pairs


# ------------------------------------------------------------- validate


def test_validate_pass(capsys, dim2_file):
    code, out, _ = run(capsys, "validate", dim2_file)
    assert code == 0
    assert kv(out)["axioms_ok"] == "true"


def test_validate_failure_lists_violations(capsys, tmp_path):
    doc = {
        "field": "Q",
        "dim": 2,
        "products": [{"op": "vdash", "i": 0, "j": 1, "value": ["1", "0"]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    pairs = kv(out)
    assert pairs["axioms_ok"] == "false"
    assert "violation[0]" in pairs


def test_validate_parse_error_exit_2(capsys, tmp_path):
    doc = {
        "field": "Q",
        "dim": 1,
        "products": [
            {"op": "vdash", "i": 0, "j": 0, "value": ["1"]},
            {"op": "vdash", "i": 0, "j": 0, "value": ["1"]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "duplicate" in err


HOSTILE_FILES = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "not_utf8": b'{"field": "Q\xff", "dim": 1, "products": []}',
    "long_int": b'{"field": "Q", "dim": ' + b"9" * 5000 + b', "products": []}',
    "long_scalar": b'{"field": "Q", "dim": 1, "products": [{"op": "vdash", "i": 0, "j": 0, "value": ["'
    + b"9" * 5000 + b'"]}]}',
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("kind", sorted(HOSTILE_FILES))
def test_hostile_file_exit_2(capsys, monkeypatch, tmp_path, kind, source):
    """Deep nesting, bytes that are not UTF-8 and an integer or a scalar
    past CPython's digit limit are bad input, read from a file or from a
    strict UTF-8 stdin alike.  The digit-limit errors name the limit without
    CPython's advice to raise it, which a user of the CLI cannot follow."""
    import io

    data = HOSTILE_FILES[kind]
    if source == "file":
        path = tmp_path / "hostile.json"
        path.write_bytes(data)
        arg = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        arg = "-"
    code, out, err = run(capsys, "validate", arg)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "internal error" not in err
    assert "set_int_max_str_digits" not in err
    if kind.startswith("long_"):
        assert f"limit of {sys.get_int_max_str_digits()} digits" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/alg.json")
    assert code == 2


def test_missing_files_are_named_in_full():
    """In a fresh process, two missing files under one directory exit 2,
    each message naming its own whole path."""
    for path in ("/nonexistent/alg.json", "/nonexistent/other.json"):
        proc = _trialg(["validate", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (2, b"")
        assert err == f"error: No such file or directory: {path!r}\n".encode()


LONG_INT = "9" * 5000  # past CPython's default limit of 4,300 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["h2", "unused.json", "-k", "0"],
        ["gen", "abelian", "-n", "-1"],
        ["gen", "random-ext", "--base", "abelian2", "-k", "0"],
        ["gen", "abelian", "-n", "2", "--field", "Fp:8"],
        ["table", "-n", "0"],
        pytest.param(["gen", "abelian", "-n", LONG_INT], id="gen-n-long"),
        pytest.param(["h2", "unused.json", "-k", LONG_INT], id="h2-k-long"),
        pytest.param(["gen", "abelian", "-n", "2", "--seed", LONG_INT], id="gen-seed-long"),
        pytest.param(["verify", "unused.json", "--seed", LONG_INT], id="verify-seed-long"),
        pytest.param(["gen", "random-ext", "--base", "abelian" + LONG_INT], id="gen-base-long"),
    ],
)
def test_bad_arguments_exit_2(capsys, argv):
    """Bad arguments exit 2 with argparse's message.  An over-long integer
    is refused with the digit limit named, the argument cut to a short
    prefix and no private function name."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert len(err.encode()) < 300 and "_base_arg" not in err
    if any(LONG_INT in arg for arg in argv):
        assert f"limit of {sys.get_int_max_str_digits()} digits" in err


def test_base_without_cocycles_exit_2(capsys):
    code, _, err = run(capsys, "gen", "random-ext", "--base", "abelian0")
    assert code == 2
    assert "no nonzero cocycles" in err


def test_internal_error_exit_3(capsys, monkeypatch, dim2_file):
    """A library bug surfacing as ValueError is not reported as bad input."""

    def broken(alg):
        raise ValueError("invariant broken")

    monkeypatch.setattr("trialg.cohomology.h2", broken)
    code, out, err = run(capsys, "h2", dim2_file)
    assert code == 3
    assert out == ""
    assert "internal error" in err
    assert "Traceback" in err and "invariant broken" in err


# ----------------------------------------------------------- invariants


def test_invariants_examples(capsys, tmp_path, dim2_file):
    code, out, _ = run(capsys, "invariants", dim2_file)
    assert code == 0
    pairs = kv(out)
    assert (pairs["dim"], pairs["derived_dim"], pairs["center_dim"]) == ("2", "1", "1")
    assert pairs["derived_cap_center_dim"] == "1"
    assert pairs["hom_dim"] == "1"

    a3 = tmp_path / "a3.json"
    a3.write_text(emit(abelian(3)))
    _, out, _ = run(capsys, "invariants", str(a3))
    pairs = kv(out)
    assert (pairs["dim"], pairs["derived_dim"], pairs["center_dim"]) == ("3", "0", "3")
    assert pairs["hom_dim"] == "3"

    k1 = tmp_path / "k1.json"
    k1.write_text(emit(cover_abelian(1)))
    _, out, _ = run(capsys, "invariants", str(k1))
    pairs = kv(out)
    assert (
        pairs["dim"],
        pairs["derived_dim"],
        pairs["center_dim"],
        pairs["derived_cap_center_dim"],
        pairs["hom_dim"],
    ) == ("4", "3", "3", "3", "1")


# ------------------------------------------------------------- h2 / cover


def test_h2_and_multiplier(capsys, dim2_file, abelian2_file):
    code, out, _ = run(capsys, "h2", dim2_file)
    assert code == 0
    pairs = kv(out)
    assert (pairs["z2_dim"], pairs["b2_dim"], pairs["h2_dim"]) == ("3", "1", "2")

    _, out, _ = run(capsys, "multiplier", abelian2_file)
    assert kv(out)["multiplier_dim"] == "12"

    _, out, _ = run(capsys, "h2", dim2_file, "--reps")
    assert "rep[0]" in kv(out)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
@pytest.mark.parametrize("k", [2, 3])
def test_h2_k_output_matches_the_dense_oracle(capsys, tmp_path, field, k):
    """``h2 -k K`` against dense elimination over F^K: ``z2_dim`` is the
    dense Z^2(F^K) dimension, and the ``rep[..]`` rows are the canonical
    complement of the dense B^2(F^K) rows, eps -> -eps(x * y) for each
    (basis vector, coordinate), in the dense Z^2(F^K) basis."""
    import random

    from trialg.algebra import OPS, change_basis
    from trialg.generators import random_extension
    from trialg.linalg import random_invertible

    from oracles import dense_complement, dense_cocycle_rows, dense_kernel, dense_z2_dim, product_vector

    ext = random_extension(abelian(2, field), 2, seed=3).total
    rebased = change_basis(ext, random_invertible(random.Random(8), ext.dim, field))
    for alg in (dim2_single_product(field), cover_abelian(1, field), rebased):
        n, width = alg.dim, 3 * alg.dim**2 * k
        path = tmp_path / "alg.json"
        path.write_text(emit(alg))
        code, out, _ = run(capsys, "h2", str(path), "-k", str(k), "--reps")
        pairs = kv(out)
        assert code == 0 and pairs["z2_dim"] == str(dense_z2_dim(alg, k))
        b2 = []
        for m in range(n):
            for t in range(k):
                row = [field.zero] * width
                for o, op in enumerate(OPS):
                    for i in range(n):
                        for j in range(n):
                            row[((o * n + i) * n + j) * k + t] = field.coerce(-product_vector(alg, op, i, j)[m])
                b2.append(row)
        z2, _ = dense_kernel(field, dense_cocycle_rows(alg, k), width)
        reps, _ = dense_complement(field, b2, z2, width)
        assert int(pairs["h2_dim"]) == len(reps) > 0
        assert [pairs[f"rep[{idx}]"] for idx in range(len(reps))] == [
            ",".join(field.to_str(x) for x in row) for row in reps]
        assert f"rep[{len(reps)}]" not in pairs


def test_h2_json_output(capsys, dim2_file):
    code, out, _ = run(capsys, "h2", dim2_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h2_dim"] == 2


def test_cover_roundtrip(capsys, tmp_path, dim2_file):
    out_path = tmp_path / "cover.json"
    code, out, _ = run(capsys, "cover", dim2_file, "-o", str(out_path))
    assert code == 0
    pairs = kv(out)
    assert pairs["multiplier_dim"] == "2"
    assert pairs["cover_dim"] == "4"
    assert pairs["stem"] == "true"
    cover_alg = parse(out_path.read_text())
    assert cover_alg.axiom_report().ok
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0


def test_cover_to_stdout_is_parseable(capsys, dim2_file):
    code, out, _ = run(capsys, "cover", dim2_file)
    assert code == 0
    assert parse(out).dim == 4


@pytest.mark.parametrize("argv", [
    ["cover", "dim2"],
    ["cover", "a3_f7"],
    ["gen", "cover-abelian", "-n", "2", "--field", "Fp:7"],
    ["gen", "random-ext", "--base", "abelian3", "-k", "2", "--seed", "5"],
])
def test_stdout_and_output_file_are_the_same_bytes(capsys, tmp_path, dim2_file, argv):
    a3_f7 = tmp_path / "a3_f7.json"
    a3_f7.write_text(emit(abelian(3, GF(7))))
    argv = [{"dim2": dim2_file, "a3_f7": str(a3_f7)}.get(arg, arg) for arg in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    written = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, "-o", str(written))
    assert code == 0
    assert written.read_bytes() == out.encode("utf-8")


def _trialg(argv, **kwargs):
    """``trialg <argv>`` started as a fresh process on this tree's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.Popen([sys.executable, "-c", "import sys, trialg.cli; sys.exit(trialg.cli.main())", *argv],
                            env=env, **kwargs)


def _read_100_bytes_then_close(argv):
    """Run ``trialg <argv>`` with stdout on a one-page pipe, read 100 bytes
    and close the pipe while the command is still writing."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set on this platform")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)  # far less than the output
    proc = _trialg(argv, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    head = b""
    while len(head) < 100:
        chunk = os.read(read_end, 100 - len(head))
        if not chunk:
            break
        head += chunk
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, head, err


@pytest.mark.parametrize("command", ["gen", "cover"])
def test_closed_stdout_exits_141_quietly(tmp_path, command):
    argv = ["gen", "cover-abelian", "-n", "3", "--field", "Fp:7"]
    if command == "cover":
        path = tmp_path / "a3_f7.json"
        path.write_text(emit(abelian(3, GF(7))))
        argv = ["cover", str(path)]
    code, head, err = _read_100_bytes_then_close(argv)
    assert len(head) == 100 and head.startswith(b'{\n  "field": "Fp:7",\n  "dim": 30,')
    assert (code, err) == (141, b"")


# --------------------------------------------------- zstar / unicentral


def test_zstar_and_unicentral(capsys, dim2_file, abelian2_file):
    code, out, _ = run(capsys, "zstar", dim2_file)
    assert code == 0
    pairs = kv(out)
    assert pairs["z_star_dim"] == "1"
    assert pairs["z_star.basis[0]"] == "0,1"

    _, out, _ = run(capsys, "unicentral", dim2_file)
    assert kv(out)["unicentral"] == "true"

    _, out, _ = run(capsys, "zstar", abelian2_file)
    assert kv(out)["z_star_dim"] == "0"
    _, out, _ = run(capsys, "unicentral", abelian2_file)
    assert kv(out)["unicentral"] == "false"


# ---------------------------------------------------------------- verify


def test_verify_with_explicit_ideal(capsys, dim2_file):
    code, out, _ = run(capsys, "verify", dim2_file, "--z", "e2")
    assert code == 0
    pairs = kv(out)
    assert pairs["ok"] == "true"
    assert pairs["z.five_term.dims"] == "1,1,1,3,2"
    assert pairs["z.five_term.ranks"] == "1,0,1,2"


def test_verify_vector_spec(capsys, dim2_file):
    code, out, _ = run(capsys, "verify", dim2_file, "--z", "0,1")
    assert code == 0


def test_verify_all_central(capsys, abelian2_file):
    code, out, _ = run(capsys, "verify", abelian2_file, "--all-central")
    assert code == 0
    assert kv(out)["ok"] == "true"


def test_verify_report_keys_are_the_record_fields(capsys, dim2_file):
    """Each report lists its record's fields in order, then its verdict
    (``ok``, or ``agree`` for the criteria) unless the verdict is a field;
    ``--json`` has the text report's keys in the same order."""
    from trialg.sequences import (
        FiveTermReport,
        InfDeltaReport,
        StallingsReport,
        TraImageReport,
        UnicentralityReport,
    )

    reports = {"five_term": (FiveTermReport, "ok"), "inf_delta": (InfDeltaReport, "ok"),
               "tra_image": (TraImageReport, "ok"), "criteria": (UnicentralityReport, "agree"),
               "stallings": (StallingsReport, "ok")}
    expected = ["z.dim"]
    for prefix, (cls, verdict) in reports.items():
        names = list(cls._fields) + [verdict] * (verdict not in cls._fields)
        expected += [f"z.{prefix}.{name}" for name in names]
    expected += ["z.ok", "ok"]
    code, out, _ = run(capsys, "verify", dim2_file, "--z", "e2")
    assert code == 0
    assert [line.split(" = ", 1)[0] for line in out.splitlines()] == expected
    code, out, _ = run(capsys, "verify", dim2_file, "--z", "e2", "--json")
    assert code == 0
    assert list(json.loads(out)) == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_center_lines_are_the_spans_of_the_center_rows(field):
    """Each ``center_line[i]`` sample of ``--all-central`` is the line of
    the i-th center basis row, in a random basis where over Q the rows'
    stored leads are not 1."""
    import random

    from trialg.algebra import change_basis
    from trialg.cli import _central_ideal_samples
    from trialg.generators import random_extension
    from trialg.linalg import Subspace, random_invertible

    ext = random_extension(abelian(2, field), 2, seed=3).total
    alg = change_basis(ext, random_invertible(random.Random(8), ext.dim, field))
    center = alg.center().space
    assert center.dim >= 2
    if field == QQ:
        assert any(lead != 1 for lead, _ in center._echelon.values())
    lines = [(label, z) for label, z in _central_ideal_samples(alg, 0) if label.startswith("center_line")]
    assert lines == [(f"center_line[{idx}]", Subspace.from_rows(field, alg.dim, [row]))
                     for idx, row in enumerate(center.basis_rows())]


def test_verify_non_central_ideal_exit_2(capsys, dim2_file):
    code, _, err = run(capsys, "verify", dim2_file, "--z", "e1")
    assert code == 2
    assert "not central" in err


def test_verify_requires_ideal_spec(capsys, dim2_file):
    code, _, err = run(capsys, "verify", dim2_file)
    assert code == 2
    assert "give --z <basis spec> or --all-central" in err


def test_verify_refuses_both_ideal_specs(capsys, dim2_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", dim2_file, "--z", "e2", "--all-central"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["e", "e1e", "ex", pytest.param("e" + LONG_INT, id="e-long")])
def test_verify_names_a_malformed_basis_token(capsys, dim2_file, token):
    code, _, err = run(capsys, "verify", dim2_file, "--z", f"e2;{token}")
    assert code == 2
    if token[1:] == LONG_INT:
        limit = f"integer exceeds the limit of {sys.get_int_max_str_digits()} digits"
        assert err == f"error: bad basis vector token {token[:12]!r}...: {limit}\n"
    else:
        assert err == f"error: bad basis vector token {token!r}\n"
    assert len(err.encode()) < 300


LONG_TEXT = "x" * 5000
HOSTILE_DOCS = {
    "field-long": {"field": LONG_TEXT, "dim": 1, "products": []},
    "field-prime-long": {"field": "Fp:" + "9" * 4000, "dim": 1, "products": []},
    "field-not-a-string": {"field": 5, "dim": 1, "products": []},
    "dim-long": {"field": "Q", "dim": LONG_TEXT, "products": []},
    "scalar-long": {"field": "Q", "dim": 1, "products": [{"op": "vdash", "i": 0, "j": 0, "value": [LONG_TEXT]}]},
    "op-long": {"field": "Q", "dim": 1, "products": [{"op": LONG_TEXT, "i": 0, "j": 0, "value": ["1"]}]},
    "index-long": {"field": "Q", "dim": 1, "products": [{"op": "vdash", "i": [0] * 2000, "j": 0, "value": ["1"]}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["gen", "abelian", "-n", "2", "--field", LONG_TEXT], id="gen-field-long"),
        pytest.param(["gen", "abelian", "-n", "2", "--field", "Fp:" + LONG_INT], id="gen-field-digits"),
        pytest.param(["gen", "abelian", "-n", "2", "--field", "Fp:" + LONG_INT[:4000]], id="gen-field-prime-long"),
        pytest.param(["gen", "abelian", "-n", "2", "--field", "Fp:-" + LONG_INT[:4000]], id="gen-field-negative-long"),
        *(pytest.param(["validate", name], id=name) for name in HOSTILE_DOCS),
        pytest.param(["verify", "dim2", "--z", LONG_TEXT], id="z-long"),
        pytest.param(["verify", "dim2", "--z", "1," + LONG_TEXT], id="z-scalar-long"),
        pytest.param(["verify", "dim2", "--z", "e" + LONG_INT[:4000]], id="z-basis-long"),
    ],
)
def test_hostile_input_is_echoed_as_a_short_prefix(capsys, tmp_path, dim2_file, argv):
    """Long or malformed input text is an input error (exit 2), quoted in
    the message only as a short prefix: under 300 bytes of stderr."""
    if argv[1] in HOSTILE_DOCS:
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(HOSTILE_DOCS[argv[1]]))
        argv = [argv[0], str(path)]
    elif argv[1] == "dim2":
        argv = [argv[0], dim2_file, *argv[2:]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "internal error" not in err
    assert len(err.encode()) < 300, err[:400]


LONG_PATH = "/" + LONG_TEXT  # a file name past the length limit of common file systems


@pytest.mark.parametrize(
    "argv, short",
    [
        pytest.param(["validate", LONG_PATH], None, id="validate-path-long"),
        pytest.param(["gen", "random-ext", "--base", LONG_PATH, "-k", "1"], None, id="gen-base-path-long"),
        pytest.param(["gen", "abelian", "-n", "2", "-o", "/nonexistent" + LONG_PATH], None, id="gen-output-path-long"),
        pytest.param([LONG_TEXT], ["xxxxx"], id="command-long"),
        pytest.param(["gen", LONG_TEXT], ["gen", "xxxxx"], id="gen-kind-long"),
        pytest.param(["validate", "a.json", "--" + LONG_TEXT], ["validate", "a.json", "--xxxxx"], id="option-long"),
    ],
)
def test_long_paths_and_tokens_are_echoed_as_a_short_prefix(argv, short):
    """In a fresh process, a file name or a bad argument token is quoted
    only as a short prefix: a long one exits 2 with no internal error, a
    file error with under 300 bytes of stderr, and an argument error with
    at most the 10 bytes of a cut prefix more than the 5-character token."""
    proc = _trialg(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"") and b"internal error" not in err
    if short is None:
        assert err.startswith(b"error: ") and len(err) < 300, err[:400]
        return
    ref = _trialg(short, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, ref_err = ref.communicate(timeout=120)
    assert ref.returncode == 2 and len(ref_err) <= len(err) <= len(ref_err) + 10, err[:400]


def test_verify_all_central_builds_each_quotient_once_and_no_cover(capsys, monkeypatch, tmp_path):
    import trialg.extensions
    import trialg.sequences
    from trialg.algebra import as_subspace
    from trialg.cli import _central_ideal_samples
    from trialg.generators import random_extension

    alg = random_extension(abelian(2), 2, seed=0).total
    path = tmp_path / "ext.json"
    path.write_text(emit(alg))
    samples = [z for _, z in _central_ideal_samples(alg, 0)]
    assert alg.dim == 4 and len(samples) >= 3

    quotients, covers = [], []
    real_quotient = trialg.sequences.quotient_algebra
    real_build = trialg.extensions.build_central_extension

    def counting_quotient(a, ideal):
        quotients.append(as_subspace(a, ideal))
        return real_quotient(a, ideal)

    def counting_build(b, k, f):
        covers.append(b)
        return real_build(b, k, f)

    monkeypatch.setattr(trialg.sequences, "quotient_algebra", counting_quotient)
    monkeypatch.setattr(trialg.extensions, "build_central_extension", counting_build)
    code, out, _ = run(capsys, "verify", str(path), "--all-central")
    assert code == 0 and kv(out)["ok"] == "true"
    assert set(quotients) == set(samples) and len(quotients) == len(set(samples))
    assert len(covers) == 0  # z_in_z_star reads Z* from the cocycle space

    # A second command reads a fresh algebra, so it builds everything again.
    code, again, _ = run(capsys, "verify", str(path), "--all-central")
    assert again == out
    assert len(quotients) == 2 * len(set(samples)) and len(covers) == 0


def test_verify_all_central_complements_the_derived_subalgebra_once(capsys, monkeypatch, tmp_path):
    """The delta map of every central ideal of L uses the complement of L'
    in L, which depends on L alone: it is built once per algebra."""
    import sys

    from trialg.cli import _central_ideal_samples
    from trialg.generators import random_extension
    from trialg.linalg import Subspace
    from trialg.sequences import _CentralIdealAnalysis

    alg = random_extension(abelian(2), 2, seed=0).total
    path = tmp_path / "ext.json"
    path.write_text(emit(alg))
    assert len(_central_ideal_samples(alg, 0)) >= 3

    delta_code = _CentralIdealAnalysis.delta.func.__code__
    real_complement = Subspace.complement_in
    calls = []

    def counting_complement(self, sup):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not delta_code:
            frame = frame.f_back
        if frame is not None:
            calls.append((self, sup))
        return real_complement(self, sup)

    monkeypatch.setattr(Subspace, "complement_in", counting_complement)
    code, out, _ = run(capsys, "verify", str(path), "--all-central")
    assert code == 0 and kv(out)["ok"] == "true"
    derived = [c for c in calls if c[0] == alg.derived().space and c[1] == Subspace.full(alg.field, alg.dim)]
    assert len(derived) == 1


def test_invariants_of_zero_dim_algebra(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": "Q", "dim": 0, "products": []}))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert kv(out)["hom_dim"] == "0"
    code, out, _ = run(capsys, "h2", str(path))
    assert code == 0
    assert kv(out)["h2_dim"] == "0"


# ------------------------------------------------------------------- gen


def test_gen_abelian(capsys):
    code, out, _ = run(capsys, "gen", "abelian", "-n", "3")
    assert code == 0
    alg = parse(out)
    assert alg.dim == 3 and not any(alg.products[op] for op in alg.products)


def test_gen_cover_abelian_dims(capsys):
    code, out, _ = run(capsys, "gen", "cover-abelian", "-n", "2")
    assert code == 0
    assert parse(out).dim == 14


def test_gen_random_ext_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "random-ext", "--base", "abelian2", "-k", "2", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "random-ext", "--base", "abelian2", "-k", "2", "--seed", "7")
    assert out1 == out2
    alg = parse(out1)
    assert alg.dim == 4
    assert alg.axiom_report().ok


def test_gen_random_ext_from_file(capsys, tmp_path, dim2_file):
    code, out, _ = run(capsys, "gen", "random-ext", "--base", dim2_file, "-k", "1", "--seed", "3")
    assert code == 0
    assert parse(out).dim == 3


def test_gen_field_option(capsys):
    code, out, _ = run(capsys, "gen", "abelian", "-n", "2", "--field", "Fp:5")
    assert code == 0
    assert '"Fp:5"' in out


def test_gen_missing_params(capsys):
    code, _, err = run(capsys, "gen", "abelian")
    assert code == 2
    code, _, err = run(capsys, "gen", "random-ext")
    assert code == 2


# ----------------------------------------------------------------- table


def test_table_values(capsys):
    code, out, _ = run(capsys, "table", "-n", "2")
    assert code == 0
    pairs = kv(out)
    assert pairs["triassociative[1]"] == "3,4"
    assert pairs["triassociative[2]"] == "12,14"
    assert pairs["lie[1]"] == "0,1"
    assert len([k for k in pairs if k.startswith("lie[")]) == 2


# ------------------------------------------------------------- pipelines


def test_validate_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(emit(abelian(2))))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert kv(out)["axioms_ok"] == "true"


def test_h2_of_zero_dim_algebra(capsys, tmp_path):
    from trialg.algebra import TriAlgebra
    from trialg.fields import QQ

    path = tmp_path / "zero.json"
    path.write_text(emit(TriAlgebra(0, QQ)))
    code, out, _ = run(capsys, "h2", str(path))
    assert code == 0
    assert kv(out)["h2_dim"] == "0"


def test_cover_quotient_reproduces_invariants(capsys, tmp_path, dim2_file):
    """The emitted cover file, quotiented by the printed kernel basis,
    reproduces the input's invariant tuple."""
    from trialg.algebra import hom_to_field, quotient_algebra
    from trialg.fields import QQ
    from trialg.linalg import Subspace

    out_path = tmp_path / "cover.json"
    code, out, _ = run(capsys, "cover", dim2_file, "-o", str(out_path))
    assert code == 0
    pairs = kv(out)
    cover_alg = parse(out_path.read_text())
    kernel_rows = []
    idx = 0
    while f"kernel.basis[{idx}]" in pairs:
        kernel_rows.append([QQ.parse(x) for x in pairs[f"kernel.basis[{idx}]"].split(",")])
        idx += 1
    kernel = Subspace.from_rows(QQ, cover_alg.dim, kernel_rows)
    quot = quotient_algebra(cover_alg, kernel).algebra

    def invariants(alg):
        derived = alg.derived().space
        center = alg.center().space
        return (
            alg.dim,
            derived.dim,
            center.dim,
            derived.intersection(center).dim,
            hom_to_field(alg).dim,
        )

    assert invariants(quot) == invariants(dim2_single_product())


def test_vector_lines_match_the_dense_views(capsys, tmp_path):
    """``kernel.basis[..]`` and ``z_star.basis[..]`` are written from
    nonzero entries; they read as the dense basis rows would."""
    import random

    from trialg.algebra import change_basis
    from trialg.extensions import cover, z_star
    from trialg.generators import random_extension
    from trialg.linalg import random_invertible

    def dense(field, rows):
        return [",".join(field.to_str(x) for x in row) for row in rows]

    def lines(out, prefix):
        pairs = kv(out)
        return [pairs[f"{prefix}[{idx}]"] for idx in range(sum(k.startswith(prefix + "[") for k in pairs))]

    ext = random_extension(abelian(2), 2, seed=3).total
    algebras = [
        dim2_single_product(),
        cover_abelian(1, GF(7)),
        random_extension(abelian(2, GF(7)), 2, seed=4).total,
        change_basis(ext, random_invertible(random.Random(8), ext.dim, ext.field)),
    ]
    for alg in algebras:
        path = tmp_path / "alg.json"
        path.write_text(emit(alg))
        f = alg.field
        _, out, _ = run(capsys, "cover", str(path), "-o", str(tmp_path / "c.json"))
        assert lines(out, "kernel.basis") == dense(f, cover(alg).extension.kernel.space.basis_rows())
        _, out, _ = run(capsys, "zstar", str(path))
        assert lines(out, "z_star.basis") == dense(f, z_star(alg).space.basis_rows())


def test_only_the_cli_reads_the_dense_views(capsys, monkeypatch, tmp_path):
    """``Matrix.data``, ``Subspace.basis_rows()`` and
    ``CochainTriple.vectorize()`` are dense output views and
    ``Matrix.__init__`` is the coercing dense constructor.  No command uses
    any of them: ``h2 --reps`` formats the representatives from their
    sparse rows too."""
    import sys

    from trialg.cohomology import CochainTriple
    from trialg.fields import GF
    from trialg.generators import random_extension
    from trialg.linalg import Matrix, Subspace

    algebras = {
        "ext_q.json": random_extension(abelian(2), 2, seed=3).total,
        "ext_f7.json": random_extension(abelian(2, GF(7)), 2, seed=4).total,
        "cova1.json": cover_abelian(1),
    }
    for name, alg in algebras.items():
        (tmp_path / name).write_text(emit(alg))
    readers = set()

    def probe(name, method):
        def wrapper(self, *args, **kwargs):
            caller = sys._getframe(1)
            readers.add((name, caller.f_globals["__name__"], caller.f_code.co_name))
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Matrix, "data", property(probe("data", Matrix.__dict__["data"].__get__)))
    monkeypatch.setattr(Matrix, "__init__", probe("__init__", Matrix.__init__))
    monkeypatch.setattr(Subspace, "basis_rows", probe("basis_rows", Subspace.basis_rows))
    monkeypatch.setattr(CochainTriple, "vectorize", probe("vectorize", CochainTriple.vectorize))
    # The probes fire on a read and a dense construction in this test.
    cover_abelian(1).center().space.basis_rows()
    Matrix(GF(7), [[1]])
    assert readers == {("basis_rows", __name__, "test_only_the_cli_reads_the_dense_views"),
                       ("data", "trialg.linalg", "basis_rows"),
                       ("__init__", __name__, "test_only_the_cli_reads_the_dense_views")}
    for name in algebras:
        path = str(tmp_path / name)
        for argv in (["cover", "-o", str(tmp_path / "c.json")], ["zstar"], ["unicentral"],
                     ["verify", "--all-central"], ["h2", "--reps"]):
            readers.clear()
            code, _, _ = run(capsys, argv[0], path, *argv[1:])
            assert code == 0, (name, argv)
            assert readers == set(), (name, argv)
