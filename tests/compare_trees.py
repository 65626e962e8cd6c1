"""Run one fixed list of ``trialg`` commands on two source trees and compare.

    python tests/compare_trees.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a ``trialg``
package.  Each tree runs the whole list, in order, in a fresh directory of its
own, through a ``trialg`` on PATH that calls ``trialg.cli.main`` from that
tree.  Per command the SHA-256 digests of stdout, stderr, the exit code and
every file in the directory are compared.  The first tree runs with
PYTHONHASHSEED=0 and the second with PYTHONHASHSEED=1, so the same ``src`` on
both sides checks that no output depends on hash order.  Each command also
has an expected exit code: 2 for the input errors and refusals below, 0 for
the rest.  The script prints each command whose digests differ or whose exit
code on the first tree is not the expected one, and exits 1 if there is any
such command, 0 if there is none.

The list holds the commands of the CI workflow's console-script step, and
then ``validate``, ``invariants``, ``h2`` (also ``-k 2 --reps``),
``multiplier``, ``cover -o``, ``zstar``, ``unicentral`` and ``verify``
(``--all-central`` as text and ``--json``; ``--z e1``, central only in
``abelian -n 2`` and refused elsewhere, and ``--z e_n`` on the last, central
basis vector) on ``gen`` outputs over Q and ``Fp:7``.
The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LONG = "x" * 5000
NINES = "9" * 5000

# Commands of the console-script step of .github/workflows/tier1.yml, with
# its files written to the working directory; tests/test_imports.py checks
# that each one still stands in that step.
CI_COMMANDS = [
    "trialg gen abelian -n 2 | trialg validate -",
    "trialg gen abelian -n 2 | trialg invariants -",
    "trialg gen cover-abelian -n 1 | trialg invariants -",
    "trialg gen abelian -n 2 | trialg h2 -",
    "trialg gen cover-abelian -n 1 | trialg h2 - -k 2 --reps",
    "trialg gen abelian -n 2 | trialg cover - -o c.json",
    "trialg validate c.json",
    "trialg gen abelian -n 2 | trialg cover -",
    "trialg gen cover-abelian -n 3 --field Fp:7 -o g.json",
    "trialg gen cover-abelian -n 3 --field Fp:7",
    "trialg gen abelian -n 2 | trialg zstar -",
    "trialg gen random-ext --base abelian2 -k 2 --seed 3 | trialg zstar -",
    "trialg gen random-ext --base abelian3 -k 2 --seed 5 --field Fp:7 | trialg zstar -",
    "trialg gen random-ext --base abelian2 -k 2 --seed 3 | trialg unicentral -",
    "trialg gen cover-abelian -n 1 | trialg verify - --all-central",
    "trialg gen cover-abelian -n 1 | trialg verify - --all-central --json",
    "trialg gen random-ext --base abelian3 -k 2 --seed 5 --field Fp:7 | trialg verify - --all-central",
    "trialg gen cover-abelian -n 2 --field Fp:7 | trialg verify - --all-central",
    "trialg gen cover-abelian -n 3 --field Fp:7 | trialg cover - -o c219.json",
    "(ulimit -v 120000; trialg h2 c219.json)",
    "(ulimit -v 120000; trialg zstar c219.json)",
    "trialg gen abelian -n 2 -o a2.json",
    "(ulimit -v 120000; trialg h2 a2.json -k 1000000)",
    "python -c 'print(\"[\" * 100000 + \"]\" * 100000)' > deep.json",
    "printf '{\"field\": \"Q\\377\", \"dim\": 1, \"products\": []}' > not_utf8.json",
    "python -c 'import json; print(json.dumps({\"field\": \"x\" * 5000, \"dim\": 1, \"products\": []}))'"
    " > long_field.json",
]
# The arguments that the step's input-error loop passes to trialg: each is
# an input error, exit 2.
CI_INPUT_ERRORS = [
    "validate deep.json",
    "validate not_utf8.json",
    f"gen abelian -n {NINES}",
    f"gen abelian -n 2 --field Fp:{NINES}",
    "validate long_field.json",
    f"validate /{LONG}",
    f"gen random-ext --base /{LONG} -k 1",
    f"gen abelian -n 2 -o /nonexistent/{LONG}",
]

# The algebras the per-command sweep reads, by file stem: gen arguments
# without the field, and the dimension n (e_n is central in each).
INPUTS = {
    "a2": ("abelian -n 2", 2),
    "ca1": ("cover-abelian -n 1", 4),
    "ca2": ("cover-abelian -n 2", 14),
    "re2": ("random-ext --base abelian2 -k 2 --seed 3", 4),
    "re3": ("random-ext --base abelian3 -k 2 --seed 5", 5),
    "reca1": ("random-ext --base ca1.{tag}.json -k 1 --seed 1", 5),
}
FIELDS = {"Q": "Q", "Fp7": "Fp:7"}
PER_FILE = [
    "validate {f}",
    "invariants {f}",
    "h2 {f}",
    "h2 {f} -k 2 --reps",
    "multiplier {f}",
    "cover {f} -o cover.{f}",
    "validate cover.{f}",
    "invariants cover.{f} --json",
    "zstar {f}",
    "unicentral {f}",
    "verify {f} --all-central",
    "verify {f} --all-central --json",
    "verify {f} --z e{n}",
]


def commands() -> list[tuple[str, int]]:
    """Each command of the list with its expected exit code."""
    out = [(c, 0) for c in CI_COMMANDS] + [("trialg " + args, 2) for args in CI_INPUT_ERRORS]
    for tag, field in FIELDS.items():
        for stem, (args, _) in INPUTS.items():
            out.append((f"trialg gen {args.format(tag=tag)} --field {field} -o {stem}.{tag}.json", 0))
        for stem, (_, n) in INPUTS.items():
            f = f"{stem}.{tag}.json"
            out += [("trialg " + c.format(f=f, n=n), 0) for c in PER_FILE]
            # e1 is central only in abelian -n 2; elsewhere verify refuses it.
            out.append((f"trialg verify {f} --z e1", 0 if stem == "a2" else 2))
    out.append(("trialg table -n 4", 0))
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tree(src: str, hash_seed: str, cmds: list[str]) -> list[dict]:
    """The digests of each command of ``cmds`` run in order on ``src`` under
    PYTHONHASHSEED=``hash_seed``."""
    with tempfile.TemporaryDirectory(prefix="compare_trees.") as tmp:
        bin_dir, work = Path(tmp, "bin"), Path(tmp, "work")
        bin_dir.mkdir()
        work.mkdir()
        shim = bin_dir / "trialg"
        shim.write_text(
            f'#!/bin/sh\nexec "{sys.executable}" -c '
            "'import sys; from trialg.cli import main; sys.argv[0] = \"trialg\"; sys.exit(main())' \"$@\"\n"
        )
        shim.chmod(0o755)
        env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
                   PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED=hash_seed)
        results = []
        for cmd in cmds:
            proc = subprocess.run(["bash", "-c", "set -o pipefail; " + cmd], cwd=work, env=env,
                                  capture_output=True, timeout=600)
            files = sorted((p.name, _digest(p.read_bytes())) for p in work.iterdir())
            results.append({
                "stdout": _digest(proc.stdout),
                "stderr": _digest(proc.stderr),
                "exit": proc.returncode,
                "files": _digest(repr(files).encode()),
            })
        return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    cmds = commands()
    with ThreadPoolExecutor(2) as pool:
        left, right = pool.map(run_tree, (args.parent_src, args.change_src), ("0", "1"),
                               [[cmd for cmd, _ in cmds]] * 2)
    differ = unexpected = 0
    for idx, ((cmd, want), a, b) in enumerate(zip(cmds, left, right)):
        shown = cmd if len(cmd) <= 120 else cmd[:117] + "..."
        keys = [k for k in a if a[k] != b[k]]
        if keys:
            differ += 1
            print(f"#{idx} differs in {', '.join(keys)}: {shown}")
        if a["exit"] != want:
            unexpected += 1
            print(f"#{idx} exits {a['exit']} on the first tree, expected {want}: {shown}")
    print(f"{len(cmds)} commands, {differ} differ, {unexpected} exit unexpectedly on the first tree")
    return 1 if differ or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
