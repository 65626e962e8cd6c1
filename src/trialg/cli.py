"""Command-line front-end.

Commands: validate, invariants, h2, multiplier, cover, zstar, unicentral,
verify, gen, table.  Reports go to standard output as stable ``key = value``
lines; ``--json`` emits the same content as one JSON object.  Exit codes:
0 pass, 1 identity/theorem-check failure, 2 input error, 3 internal error
(any other exception: a bug, reported with its traceback on stderr), 141
standard output closed before the command finished writing (``| head``;
nothing is printed, as for a tool that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

# cohomology, extensions, generators and sequences are lazy modules (see
# __init__): each is executed only when a command first calls into it.
from . import algfile, cohomology, extensions, generators, sequences
from .algebra import (
    InvalidAlgebraError,
    NoCocyclesError,
    NotCentralIdealError,
    TriAlgebra,
    check_dim_bounds,
    dimension_bound_table,
    hom_to_field,
)
from .fields import QQ, FieldMismatchError, _echo, parse_field
from .linalg import Subspace, _scalar_rows, random_combination

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a tool that SIGPIPE ended

# Exceptions that report bad input rather than a bug.
_INPUT_ERRORS = (
    algfile.AlgebraFileError,
    FieldMismatchError,
    NotCentralIdealError,
    NoCocyclesError,
    OSError,
)


class _Report:
    """Ordered key/value accumulator with the two output styles."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key, value):
        self.items.append((key, value))

    def record(self, prefix, record) -> bool:
        """Add a report record's fields in order, each tuple as a comma list,
        then its verdict (``ok``, or ``agree`` for the criteria) unless the
        verdict is a field; return the verdict."""
        for key, value in zip(record._fields, record):
            self.add(f"{prefix}.{key}", ",".join(map(str, value)) if isinstance(value, tuple) else value)
        key, verdict = ("agree", record.agree) if hasattr(record, "agree") else ("ok", record.ok)
        if key not in record._fields:
            self.add(f"{prefix}.{key}", verdict)
        return verdict

    def print(self, as_json: bool):
        if as_json:
            print(json.dumps(dict(self.items), default=str, indent=2))
        else:
            for key, value in self.items:
                if isinstance(value, bool):
                    value = "true" if value else "false"
                print(f"{key} = {value}")


def _read_algebra(path: str) -> TriAlgebra:
    if path == "-":
        return algfile.parse(getattr(sys.stdin, "buffer", sys.stdin).read())  # bytes: no locale decoding
    return algfile.load(path)


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _vector_str(field, v) -> str:
    return ",".join(field.to_str(x) for x in v)


def _basis_strs(space: Subspace) -> list[str]:
    """The basis rows of ``space`` as ``_vector_str`` lines, formatted from
    their nonzero entries."""
    f, n = space.field, space.ambient_dim
    return [",".join(algfile.scalar_strings(f, n, row)) for row in _scalar_rows(space.basis)]


def _parse_z_spec(alg: TriAlgebra, spec: str) -> Subspace:
    """Basis spec: ';'-separated vectors, each either e<i> (1-based basis
    vector) or a comma-separated coordinate list."""
    rows = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if token.startswith("e"):
            idx = _int(token[1:], "bad basis vector token", token)
            if not (1 <= idx <= alg.dim):
                raise ValueError(f"basis vector {_echo(token)} out of range for dim {alg.dim}")
            row = [alg.field.zero] * alg.dim
            row[idx - 1] = alg.field.one
            rows.append(row)
        else:
            parts = [p.strip() for p in token.split(",")]
            if len(parts) != alg.dim:
                raise ValueError(f"vector {_echo(token)} must have {alg.dim} coordinates")
            rows.append([alg.field.parse(p) for p in parts])
    return Subspace.from_rows(alg.field, alg.dim, rows)


def cmd_validate(args) -> int:
    alg = _read_algebra(args.path)
    report = alg.axiom_report()
    out = _Report()
    out.add("dim", alg.dim)
    out.add("field", alg.field.name)
    out.add("axioms_ok", report.ok)
    out.add("violation_count", len(report.violations))
    for idx, v in enumerate(report.violations):
        i, j, l = v.triple
        out.add(f"violation[{idx}]", f"axiom {v.axiom} at ({i},{j},{l}) "
                                     f"defect {_vector_str(alg.field, v.defect)}")
    out.print(args.json)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_invariants(args) -> int:
    alg = _read_algebra(args.path)
    alg.require_valid()
    derived = alg.derived()
    center = alg.center()
    out = _Report()
    out.add("dim", alg.dim)
    out.add("derived_dim", derived.dim)
    out.add("center_dim", center.dim)
    out.add("derived_cap_center_dim", derived.intersection(center).dim)
    out.add("hom_dim", hom_to_field(alg).dim)
    bounds = check_dim_bounds(alg)
    out.add("derived_bound", bounds.derived_bound)
    out.add("derived_bound_ok", bounds.derived_ok)
    out.print(args.json)
    return EXIT_OK


def cmd_h2(args) -> int:
    """H^2(L, F^k) as k copies of H^2(L, F): k times each dimension, and as
    representatives each F representative in each of the k coordinates."""
    alg, k = _read_algebra(args.path), args.k
    res = cohomology.h2(alg)
    out = _Report()
    out.add("coeff_dim", k)
    out.add("z2_dim", k * res.z2.dim)
    out.add("b2_dim", k * res.b2.dim)
    out.add("h2_dim", k * res.h2_dim)
    if k == 1:
        out.add("multiplier_dim", res.h2_dim)
    if args.reps:  # entry c of a representative in coordinate t sits at c k + t
        width = 3 * alg.dim**2 * k
        reps = _scalar_rows(res._complement.basis)
        rows = ({c * k + t: x for c, x in rep.items()} for rep in reps for t in range(k))
        for idx, row in enumerate(rows):
            out.add(f"rep[{idx}]", ",".join(algfile.scalar_strings(alg.field, width, row)))
    out.print(args.json)
    return EXIT_OK


def cmd_cover(args) -> int:
    alg = _read_algebra(args.path)
    result = extensions.cover(alg)
    ext = result.extension
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            algfile.emit(ext.total, fh)
        out = _Report()
        out.add("multiplier_dim", result.multiplier_dim)
        out.add("cover_dim", ext.total.dim)
        out.add("kernel_dim", ext.kernel.dim)
        out.add("stem", ext.is_stem())
        for idx, line in enumerate(_basis_strs(ext.kernel)):
            out.add(f"kernel.basis[{idx}]", line)
        out.add("output", args.output)
        out.print(args.json)
    else:
        algfile.emit(ext.total, sys.stdout)
    return EXIT_OK


def cmd_zstar(args) -> int:
    alg = _read_algebra(args.path)
    zs = extensions.z_star(alg)
    out = _Report()
    out.add("z_star_dim", zs.dim)
    for idx, line in enumerate(_basis_strs(zs)):
        out.add(f"z_star.basis[{idx}]", line)
    out.print(args.json)
    return EXIT_OK


def cmd_unicentral(args) -> int:
    alg = _read_algebra(args.path)
    out = _Report()
    out.add("unicentral", extensions.is_unicentral(alg))
    out.print(args.json)
    return EXIT_OK


def _central_ideal_samples(alg: TriAlgebra, seed: int) -> list[tuple[str, Subspace]]:
    """Central ideals for --all-central: zero, each center basis line, up to
    two random central lines, and the full center."""
    center = alg.center()
    fld = alg.field
    samples = [("zero", Subspace.zero(fld, alg.dim))]
    for idx, (p, row) in enumerate(center._echelon.items()):  # an RREF basis row is its line's RREF
        samples.append((f"center_line[{idx}]", Subspace(fld, alg.dim, {p: row})))
    rng = random.Random(seed)
    for t in range(2):
        if center.dim < 2:
            break
        acc = random_combination(rng, center.basis)
        if acc is not None:
            samples.append((f"random_line[{t}]", Subspace._span(acc)))
    if center.dim:
        samples.append(("center", center))
    return samples


def cmd_verify(args) -> int:
    alg = _read_algebra(args.path)
    alg.require_valid()
    if args.z is not None:
        try:
            z = _parse_z_spec(alg, args.z)
        except ValueError as exc:
            return _fail_input(str(exc))
        targets = [("z", z)]
    elif args.all_central:
        targets = _central_ideal_samples(alg, args.seed)
    else:
        return _fail_input("give --z <basis spec> or --all-central")
    out = _Report()
    all_ok = True
    for label, z in targets:
        out.add(f"{label}.dim", z.dim)
        ok = True
        for name, check in (
            ("five_term", sequences.verify_five_term),
            ("inf_delta", sequences.verify_inf_delta),
            ("tra_image", sequences.tra_image_check),
            ("criteria", sequences.unicentrality_criteria),
            ("stallings", sequences.stallings_check),
        ):
            ok = out.record(f"{label}.{name}", check(alg, z)) and ok
        out.add(f"{label}.ok", ok)
        all_ok = all_ok and ok
    out.add("ok", all_ok)
    out.print(args.json)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    if args.kind in ("abelian", "cover-abelian"):
        if args.n is None:
            return _fail_input(f"gen {args.kind} requires -n")
        make = generators.abelian if args.kind == "abelian" else generators.cover_abelian
        alg = make(args.n, args.field)
    else:  # random-ext
        if args.base is None:
            return _fail_input("gen random-ext requires --base")
        if isinstance(args.base, int):
            base = generators.abelian(args.base, args.field)
        else:
            base = _read_algebra(args.base)
        alg = generators.random_extension(base, args.k, args.seed).total
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            algfile.emit(alg, fh)
    else:
        algfile.emit(alg, sys.stdout)
    return EXIT_OK


def cmd_table(args) -> int:
    out = _Report()
    for cls_name, n, d_bound, k_bound in dimension_bound_table(args.n):
        out.add(f"{cls_name}[{n}]", f"{d_bound},{k_bound}")
    out.print(args.json)
    return EXIT_OK


def _int(text: str, label: str, echo: str) -> int:
    """``int(text)``, else a ValueError of ``label`` and ``echo`` cut to a
    short prefix, naming the digit limit when ``text`` is an integer past it."""
    try:
        return int(text)
    except ValueError:
        error = f"{label} {_echo(echo)}"
        if re.fullmatch(r"\s*[+-]?[\d_]+\s*", text):
            error += f": integer exceeds the limit of {sys.get_int_max_str_digits()} digits"
        raise ValueError(error) from None


def _int_arg(minimum: int | None = None):
    """argparse type: an integer, >= ``minimum`` when one is given."""

    def parse(text: str) -> int:
        try:
            value = _int(text, "invalid integer", text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _field_arg(text: str):
    try:
        return parse_field(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _base_arg(text: str):
    """``abelian<N>`` as the int N; anything else is a file path."""
    match = re.fullmatch(r"abelian(\d+)", text)
    return _int_arg()(match.group(1)) if match else text


class _Parser(argparse.ArgumentParser):
    """argparse, quoting a bad choice as a short prefix; subcommands too."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_echo(value)} (choose from {choices})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trialg",
        description="Exact structure-constant toolkit for triassociative algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    p = add("validate", cmd_validate, help="check the defining identities")
    p.add_argument("path", help="algebra file, or - for stdin")

    p = add("invariants", cmd_invariants, help="dimension invariants")
    p.add_argument("path")

    p = add("h2", cmd_h2, help="second cohomology dimensions")
    p.add_argument("path")
    p.add_argument("-k", type=_int_arg(1), default=1, help="coefficient dimension (default 1)")
    p.add_argument("--reps", action="store_true", help="dump class representatives")

    p = add("multiplier", cmd_h2, help="alias of h2 at k = 1")
    p.add_argument("path")
    p.set_defaults(k=1, reps=False)

    p = add("cover", cmd_cover, help="construct a cover")
    p.add_argument("path")
    p.add_argument("-o", "--output", help="write the cover file here and report on stdout")

    p = add("zstar", cmd_zstar, help="stable center Z*")
    p.add_argument("path")

    p = add("unicentral", cmd_unicentral, help="is Z* equal to the center")
    p.add_argument("path")

    p = add("verify", cmd_verify, help="run the sequence/criteria suites for a central ideal")
    p.add_argument("path")
    ideal = p.add_mutually_exclusive_group()
    ideal.add_argument("--z", help="central ideal basis: 'e2' or '0,1'; ';' separates vectors")
    ideal.add_argument("--all-central", action="store_true", help="sample central ideals")
    p.add_argument("--seed", type=_int_arg(), default=0)

    p = add("gen", cmd_gen, help="generate corpus algebras")
    p.add_argument("kind", choices=["abelian", "cover-abelian", "random-ext"])
    p.add_argument("-n", type=_int_arg(0), help="dimension parameter")
    p.add_argument("--field", type=_field_arg, default=QQ, help="Q (default) or Fp:<prime>")
    p.add_argument("--base", type=_base_arg, help="random-ext base: file path or abelian<N>")
    p.add_argument("-k", type=_int_arg(1), default=1, help="random-ext kernel dimension")
    p.add_argument("--seed", type=_int_arg(), default=0)
    p.add_argument("-o", "--output")

    p = add("table", cmd_table, help="dimension-bound table rows")
    p.add_argument("-n", type=_int_arg(1), default=10, help="largest n (default 10)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # quoted as short prefixes, as a bad choice is
        parser.error("unrecognized arguments: " + " ".join(map(_echo, extra)))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to devnull, so the
        # flush at exit reports nothing (the recipe of Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as exc:  # a file name is quoted up to 200 characters, whole unless hostile
        return _fail_input(f"{exc.strerror}: {_echo(exc.filename, 200)}" if getattr(exc, "filename", None) else str(exc))
    except InvalidAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception:
        import traceback  # only on this path: start-up time dominates short commands

        print("internal error (a bug in trialg, not in the input):", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
