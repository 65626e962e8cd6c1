"""Self-test of the benchmark's correctness gate on a tiny configuration.

Usage (from the repository root): python3 perfbench/selftest.py

Writes a two-command corpus (validate and h2 of abelian(2) over Q),
records its output digests, and shows that:

1. a pass against the recorded digests counts no failure, and each
   command reports its own peak RSS;
2. one corrupted expected digest makes exactly that command fail;
3. a wrong exit code and a missed deadline each count as a failure;
4. a traced pass reproduces the plain digests, and its spans nest, have
   non-negative self times and include the layers the command crosses;
   a child span outside its parent is reported.

Exits 0 when every check holds and 1 otherwise.
"""

import dataclasses
import shutil
import sys

import run
from tracer import integrity_problems, self_times
from workloads import Cmd

from trialg import algfile
from trialg.generators import abelian


def main() -> int:
    workdir = run.WORK_DIR / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failures = []

    def expect(condition, message):
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    try:
        (workdir / "a2.json").write_text(algfile.emit(abelian(2)))
        cmds = [
            Cmd("validate:a2", "validate", ["validate", "a2.json"], "a2.json",
                expect={"axioms_ok": "true"}),
            Cmd("h2:a2", "h2", ["h2", "a2.json"], "a2.json", expect={"multiplier_dim": "12"}),
        ]
        recorded, _ = run.run_pass(cmds, workdir, {}, {})
        expect(not any(r.problems for r in recorded), "tiny corpus passes without digests")
        expect(all(0 < r.rss_mb < 200 for r in recorded), "each command reports its peak RSS")
        expected = {run.input_key(r.cmd, workdir): r.digest for r in recorded}

        results, _ = run.run_pass(cmds, workdir, expected, {})
        expect(not any(r.problems for r in results), "recorded digests are reproduced")

        corrupted = dict(expected)
        key = run.input_key(cmds[1], workdir)
        corrupted[key] = "0" * 64
        results, _ = run.run_pass(cmds, workdir, corrupted, {})
        expect([bool(r.problems) for r in results] == [False, True],
               "a corrupted expected digest fails exactly its command")

        wrong_rc = dataclasses.replace(cmds[0], rc=2)
        results, _ = run.run_pass([wrong_rc], workdir, expected, {})
        expect(bool(results[0].problems), "a wrong exit code counts as a failure")

        late = run.run_command(cmds[1], workdir, deadline=0.001)
        run.check(late, workdir, expected)
        expect(late.timed_out and bool(late.problems), "a missed deadline counts as a failure")

        reference = {r.cmd.id: r.digest for r in recorded}
        traced, _ = run.run_pass(cmds, workdir, expected, reference, traced=True)
        expect(not any(r.problems for r in traced), "traced outputs match the plain ones")
        layer = run.LayerTotals()
        problems = [p for r in traced for p in layer.add(r.trace)]
        expect(not problems, "spans nest and self times are non-negative")
        outside = [["parent", 0.0, 1.0, -1], ["child", 0.5, 1.5, 0]]
        expect(bool(integrity_problems(outside, self_times(outside))),
               "a child span outside its parent is reported")
        metrics = layer.metrics(1, 0.0)
        expect(metrics["cohomology.h2.calls"][0] == 1 and metrics["algfile.parse.calls"][0] == 2,
               "spans count the h2 call and both file parses")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
