"""Seeded corpora and command lists of the two workloads.

``build(workload, seed, outdir)`` writes one run's algebra files into
``outdir`` and returns the commands to run on them.  Everything random is
drawn from ``random.Random`` seeded by the workload name and the seed, so
the same seed always gives byte-identical files.  Why each workload exists
is written down in README.md beside this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Generators are called through their module, so that the tracer, which
# rebinds module attributes, sees them during set-up.
from trialg import algfile, generators
from trialg.algebra import change_basis
from trialg.cohomology import CochainTriple, cocycle_defects
from trialg.extensions import extension_algebra
from trialg.fields import GF, QQ
from trialg.linalg import random_invertible

F7 = GF(7)
FIELDS = {"q": QQ, "f7": F7}

WORKLOADS = ("sparse-cover", "small-mix")
PROBED_WORKLOAD = "small-mix"  # runs the known-defect probes below

# The two inputs that the program mishandles at the commit that added the
# benchmark (see README.md, "Known defects").  They should exit 2.
KNOWN_DEFECTS = {
    "huge_prime.json": '{"field": "Fp:170141183460469231731687303715884105727", '
                       '"dim": 1, "products": []}\n',
    "bool_dim.json": '{"field": "Q", "dim": true, "products": []}\n',
}


@dataclass
class Cmd:
    """One CLI invocation and what its output must satisfy."""

    id: str
    cls: str
    argv: list[str]
    input: str
    rc: int = 0
    expect: dict = field(default_factory=dict)  # report lines "key = value" that must appear
    output: str | None = None  # file written by ``cover -o``


def _write(outdir: Path, name: str, alg) -> str:
    (outdir / name).write_text(algfile.emit(alg), encoding="utf-8")
    return name


def _extension(n: int, k: int, fld, rng: random.Random):
    """Random central extension of abelian(n) by F^k, in its adapted basis."""
    return generators.random_extension(generators.abelian(n, fld), k, rng.randrange(2**31)).total


def _rebased(alg, rng: random.Random):
    """The same algebra in a seeded random basis: dense, fractional constants."""
    return change_basis(alg, random_invertible(rng, alg.dim, alg.field))


def _cover_chain(name: str, expect: dict | None = None) -> list[Cmd]:
    expect = expect or {}
    out = f"out/{name}.cover.json"
    return [
        Cmd(f"h2:{name}", "h2", ["h2", name], name,
            expect={k: v for k, v in expect.items() if k == "multiplier_dim"}),
        Cmd(f"cover:{name}", "cover", ["cover", name, "-o", out], name, output=out,
            expect={k: v for k, v in expect.items() if k in ("multiplier_dim", "cover_dim")}),
        Cmd(f"zstar:{name}", "zstar", ["zstar", name], name,
            expect={k: v for k, v in expect.items() if k == "z_star_dim"}),
        Cmd(f"unicentral:{name}", "unicentral", ["unicentral", name], name,
            expect={k: v for k, v in expect.items() if k == "unicentral"}),
    ]


def _sparse_cover(rng, outdir):
    cmds = []
    ab5 = {"multiplier_dim": "75", "cover_dim": "80", "z_star_dim": "0", "unicentral": "false"}
    for tag, fld in FIELDS.items():
        cmds += _cover_chain(_write(outdir, f"abelian5_{tag}.json", generators.abelian(5, fld)), ab5)
        cmds += _cover_chain(_write(outdir, f"cover_abelian2_{tag}.json", generators.cover_abelian(2, fld)))
    cmds += _cover_chain(_write(outdir, "ext8_f7.json", _extension(6, 2, F7, rng)))
    return cmds


# (base dimension, kernel dimension) of the random extensions, per slot.
REBASED_SHAPES = [(3, 1), (2, 2), (3, 2)]
VERIFY_SHAPES = [("f7", 3, 1), ("f7", 2, 2), ("q", 3, 1), ("f7", 4, 1)]


def _rebased_q(rng, outdir):
    cmds = []
    for slot, (n, k) in enumerate(REBASED_SHAPES):
        alg = _rebased(_extension(n, k, QQ, rng), rng)
        name = _write(outdir, f"rebased{slot:02d}_dim{n + k}.json", alg)
        cmds += [
            Cmd(f"validate:{name}", "validate", ["validate", name], name,
                expect={"dim": str(n + k), "axioms_ok": "true"}),
            Cmd(f"h2:{name}", "h2", ["h2", name], name),
            Cmd(f"zstar:{name}", "zstar", ["zstar", name], name),
        ]
    return cmds


def _verify_sweep(rng, outdir):
    cmds = []
    for slot, (tag, n, k) in enumerate(VERIFY_SHAPES):
        name = _write(outdir, f"ext{slot:02d}_dim{n + k}_{tag}.json",
                      _extension(n, k, FIELDS[tag], rng))
        seed = str(rng.randrange(1000))
        cmds.append(Cmd(f"verify:{name}", "verify",
                        ["verify", name, "--all-central", "--seed", seed], name,
                        expect={"ok": "true"}))
    return cmds


def _non_cocycle_extension(rng, fld):
    """Force-built extension along a random cochain that is not a cocycle."""
    base = _extension(3, 1, fld, rng)
    k = rng.choice((1, 2))
    width = 3 * base.dim * base.dim * k
    while True:
        vec = [fld.random_scalar(rng) for _ in range(width)]
        cochain = CochainTriple.from_vector(base, k, vec)
        if cocycle_defects(cochain):
            return extension_algebra(base, cochain)


def _malformed(kind: str, doc: dict, rng) -> str:
    """A corrupted copy of a valid algebra document; the CLI must exit 2."""
    entries = doc["products"]
    if kind == "bad_json":
        text = json.dumps(doc, indent=2)
        return text[: rng.randrange(1, len(text) - 1)]
    entry = rng.choice(entries)
    if kind == "index_out_of_range":
        entry[rng.choice(("i", "j"))] = doc["dim"] + rng.randrange(3)
    elif kind == "duplicate_entry":
        entries.insert(rng.randrange(len(entries) + 1), dict(entry))
    elif kind == "bad_scalar":
        value = entry["value"]
        value[rng.randrange(len(value))] = rng.choice(("1.5", "x", "2/", "--3", ""))
    return json.dumps(doc, indent=2) + "\n"


MALFORMED_KINDS = ("bad_json", "index_out_of_range", "duplicate_entry", "bad_scalar")


def _triage(rng, outdir):
    files = []  # (name, expected exit code, expected report lines)
    for n in (3, 4, 5):
        for tag, fld in FIELDS.items():
            d = 3 * n * n
            alg = generators.cover_abelian(n, fld)
            files.append((_write(outdir, f"cover_abelian{n}_{tag}.json", alg), 0,
                          {"dim": str(n + d), "derived_dim": str(d), "center_dim": str(d),
                           "hom_dim": str(n)}))
    alg = _rebased(_extension(4, 2, QQ, rng), rng)
    files.append((_write(outdir, "dense_dim6.json", alg), 0, {"dim": "6"}))
    valid_docs = []
    for slot in range(3):
        tag = ("q", "f7")[slot % 2]
        n, k = rng.choice(((2, 1), (3, 1), (2, 2), (3, 2)))
        alg = _rebased(_extension(n, k, FIELDS[tag], rng), rng)
        files.append((_write(outdir, f"valid{slot:02d}_{tag}.json", alg), 0, {"dim": str(n + k)}))
        valid_docs.append(algfile.algebra_to_dict(alg))
    for slot in range(2):
        tag = ("q", "f7")[slot % 2]
        alg = _non_cocycle_extension(rng, FIELDS[tag])
        files.append((_write(outdir, f"noncocycle{slot}_{tag}.json", alg), 1, {}))
    for slot, kind in enumerate(MALFORMED_KINDS):
        text = _malformed(kind, json.loads(json.dumps(rng.choice(valid_docs))), rng)
        name = f"malformed{slot:02d}_{kind}.json"
        (outdir / name).write_text(text, encoding="utf-8")
        files.append((name, 2, {}))
    axioms = {0: {"axioms_ok": "true"}, 1: {"axioms_ok": "false"}, 2: {}}
    cmds = []
    for name, rc, expect in files:
        dim = {k: v for k, v in expect.items() if k == "dim"}
        cmds.append(Cmd(f"validate:{name}", "validate", ["validate", name], name, rc=rc,
                        expect={**dim, **axioms[rc]}))
        cmds.append(Cmd(f"invariants:{name}", "invariants", ["invariants", name], name, rc=rc,
                        expect=expect))
    return cmds


def _small_mix(rng, outdir):
    """Three parts in one run, so that each run is long enough to average
    out the load of other tenants on a shared machine:

    - rebased: dense rational elimination and Fraction growth;
    - verify: orchestration over many small matrices;
    - triage: interpreter start, parsing, the axiom sweep and error exits.
    """
    return _rebased_q(rng, outdir) + _verify_sweep(rng, outdir) + _triage(rng, outdir)


BUILDERS = {"sparse-cover": _sparse_cover, "small-mix": _small_mix}


def build(workload: str, seed: int, outdir: Path) -> list[Cmd]:
    """Write the workload's corpus for ``seed`` into ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "out").mkdir(exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, outdir)


def known_defect_probes(outdir: Path) -> list[Cmd]:
    """``validate`` on each known-defect file; each should exit 2."""
    cmds = []
    for name, text in KNOWN_DEFECTS.items():
        (outdir / name).write_text(text, encoding="utf-8")
        cmds.append(Cmd(f"validate:{name}", "validate", ["validate", name], name, rc=2))
    return cmds
