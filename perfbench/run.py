"""trialg benchmark: seeded corpora, one fresh interpreter per CLI command.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse-cover --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1       # every metric of every workload
    python3 perfbench/run.py --workload all --seed 1 --record   # store expected digests

A run writes the workload's corpus (timed as ``setup_s``), then runs the
command list in a closed loop with one client: one child process at a
time, each a fresh interpreter running ``launch.py``, a stand-in for the
``trialg`` console script.  Passes over the list repeat while another pass
still fits in ``--seconds``; at least three passes always run, and each
command's time is its shortest over the passes.  Every output is checked;
a failed check counts in ``failed`` and never stops the run.

With ``--trace 1`` the run makes one plain pass, then traced passes in
which ``launch.py`` wraps the layers first, and reports per-layer metrics
from the traced passes plus the tracing overhead.  End-to-end metrics
come only from plain passes.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics that BENCHMARK.json lists for the mode.
README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_FILE = HERE / "expected.json"
WORK_DIR = HERE / "_work"

DEFAULT_SEED = 1  # the held-out seed is 7 (README.md)
DEADLINE_S = 30.0  # per workload command; the slowest takes about 3 s
PROBE_DEADLINE_S = 3.0  # a one-line known-defect file must fail fast
MIN_PASSES = 3  # each command's best of three passes rejects two slowed runs of it
# Before each plain pass the corpus is built at least SETUP_REPEATS times
# and for SETUP_MIN_S, so that setup_s samples the whole run, not one moment.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
TAIL_BEYOND = 10  # cmd_s.tail has at least this many commands per pass above it
CLASSES = ("h2", "cover", "zstar", "unicentral", "verify", "validate", "invariants")

sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as exc:  # no program to measure: fail without a result
    sys.exit(f"error: cannot import trialg from {SRC}: {exc}")
from tracer import COUNT_SPAN, Tracer, integrity_problems, self_times  # noqa: E402


@dataclass
class Result:
    cmd: object
    wall: float
    rss_mb: float
    rc: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    span_file: Path | None = None
    digest: str = ""
    trace: dict | None = None
    problems: list = field(default_factory=list)


# -- running one command --------------------------------------------------


def run_command(cmd, workdir: Path, deadline: float, span_file: Path | None = None) -> Result:
    """Spawn one CLI process, wait for it, and time it from spawn to exit."""
    out_path, err_path, rss_path = (workdir / n for n in ("stdout.txt", "stderr.txt", "rss.txt"))
    rss_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launch.py"), str(rss_path),
            str(span_file) if span_file else "-", cmd.id, *cmd.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(deadline, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = int(rss_path.read_text()) if rss_path.exists() else usage.ru_maxrss
    return Result(cmd, wall, peak_kb / 1024.0, proc.returncode,
                  killed.is_set() and proc.returncode < 0,
                  out_path.read_bytes(), err_path.read_bytes(), span_file)


# -- checking outputs -----------------------------------------------------


def input_key(cmd, workdir: Path) -> str:
    """Digest key: the command line plus the exact bytes of its input."""
    h = hashlib.sha256(json.dumps(cmd.argv).encode())
    h.update(b"\0")
    h.update((workdir / cmd.input).read_bytes())
    return h.hexdigest()


def output_digest(res: Result, workdir: Path) -> str:
    h = hashlib.sha256(res.stdout)
    if res.cmd.output:
        path = workdir / res.cmd.output
        h.update(b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def report_lines(stdout: bytes) -> dict:
    out = {}
    for line in stdout.decode(errors="replace").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def structural_problems(res: Result, rep: dict, workdir: Path) -> list[str]:
    """Checks that hold for every seed and need no recorded digest."""
    cls, probs = res.cmd.cls, []

    def count(prefix):
        return sum(1 for k in rep if k.startswith(prefix))

    try:
        if cls == "h2":
            z2, b2, h2 = int(rep["z2_dim"]), int(rep["b2_dim"]), int(rep["h2_dim"])
            if z2 - b2 != h2 or rep.get("multiplier_dim") != str(h2):
                probs.append("h2: z2_dim - b2_dim != h2_dim = multiplier_dim")
        elif cls == "cover":
            dim = json.loads((workdir / res.cmd.input).read_text())["dim"]
            m, total = int(rep["multiplier_dim"]), int(rep["cover_dim"])
            written = json.loads((workdir / res.cmd.output).read_text())
            if total != dim + m or rep["kernel_dim"] != str(m) or rep["stem"] != "true":
                probs.append("cover: dimensions or stem flag inconsistent")
            if count("kernel.basis[") != m or written["dim"] != total:
                probs.append("cover: kernel basis or written cover file inconsistent")
        elif cls == "zstar":
            if count("z_star.basis[") != int(rep["z_star_dim"]):
                probs.append("zstar: basis size != z_star_dim")
        elif cls == "unicentral":
            if rep["unicentral"] not in ("true", "false"):
                probs.append("unicentral: not a boolean")
        elif cls == "validate":
            if (rep["violation_count"] == "0") != (rep["axioms_ok"] == "true"):
                probs.append("validate: violation_count disagrees with axioms_ok")
        elif cls == "invariants":
            if int(rep["derived_cap_center_dim"]) > min(int(rep["derived_dim"]),
                                                        int(rep["center_dim"])):
                probs.append("invariants: intersection larger than its parts")
        elif cls == "verify":
            bad = [k for k, v in rep.items() if k.endswith(".ok") and v != "true"]
            if bad:
                probs.append(f"verify: {bad[0]} is not true")
    except (KeyError, ValueError, OSError) as exc:
        probs.append(f"{cls}: report incomplete ({exc!r})")
    return probs


def check(res: Result, workdir: Path, expected: dict) -> None:
    """Fill ``res.problems``; an empty list means the command passed."""
    cmd = res.cmd
    res.digest = output_digest(res, workdir)
    if res.timed_out:
        res.problems.append("missed its deadline")
        return
    if res.rc != cmd.rc:
        res.problems.append(f"exit code {res.rc}, expected {cmd.rc}")
    if b"Traceback" in res.stderr:
        res.problems.append("crashed")
    if res.rc != cmd.rc or cmd.rc == 2:
        return
    rep = report_lines(res.stdout)
    for key, value in cmd.expect.items():
        if rep.get(key) != value:
            res.problems.append(f"{key} = {rep.get(key)}, expected {value}")
    if cmd.rc == 0:
        res.problems += structural_problems(res, rep, workdir)
    want = expected.get(input_key(cmd, workdir))
    if want is not None and want != res.digest:
        res.problems.append("output digest differs from the recorded one")


# -- passes and runs ------------------------------------------------------


def run_pass(cmds, workdir: Path, expected: dict, reference: dict, traced: bool = False):
    """Run every command once, in order, then check the outputs; the pass
    time covers the commands only.  ``reference`` maps command id to the
    digest of its first run; later runs must reproduce it."""
    results = []
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if cmd.output:
            (workdir / cmd.output).unlink(missing_ok=True)
        span_file = workdir / f"spans{i}.json" if traced else None
        results.append(run_command(cmd, workdir, DEADLINE_S, span_file))
    wall = time.perf_counter() - start
    for res in results:
        check(res, workdir, expected)
        first = reference.setdefault(res.cmd.id, res.digest)
        if first != res.digest:
            res.problems.append("output differs from the first run of this command")
        if res.span_file is not None:
            if res.span_file.exists():
                res.trace = json.loads(res.span_file.read_text())
                res.span_file.unlink()
            else:
                res.problems.append("traced command wrote no spans")
    return results, wall


def loop_passes(cmds, workdir, expected, reference, seconds, traced=False, min_passes=1,
                before_pass=None):
    """Closed loop: run ``min_passes`` passes, then more while one more is
    expected to fit in ``seconds``.  ``before_pass`` runs ahead of every
    pass but the first, outside the pass time."""
    passes, walls = [], []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start + statistics.mean(walls) <= seconds):
        if passes and before_pass is not None:
            before_pass()
        results, wall = run_pass(cmds, workdir, expected, reference, traced)
        passes.append(results)
        walls.append(wall)
    return passes, walls


def end_to_end(passes, setup_times) -> dict:
    """Metric name -> (value, unit) from plain passes.

    A pass's time is the sum over its commands of each command's shortest
    wall time across passes, so a command slowed by another tenant of the
    machine in some passes does not move it."""
    per_pass = len(passes[0])
    best = [min(p[i].wall for p in passes) for i in range(per_pass)]
    times = sorted(r.wall for p in passes for r in p)
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (sum(best), "s"),
        "cmd_s.p50": (statistics.median(times), "s"),
    }
    if per_pass >= 2 * TAIL_BEYOND:
        out["cmd_s.tail"] = (times[len(times) - 1 - TAIL_BEYOND * len(passes)], "s")
    for cls in CLASSES:
        if any(r.cmd.cls == cls for r in passes[0]):
            total = sum(b for b, r in zip(best, passes[0]) if r.cmd.cls == cls)
            out[f"{cls}_s"] = (total, "s")
    out["peak_rss_mb"] = (max(r.rss_mb for p in passes for r in p), "MB")
    return out


# -- per-layer metrics from spans -----------------------------------------

# Every per-layer metric, in report order, with its unit.  Span metrics
# are per traced pass; README.md maps each to the end-to-end metric and
# workload it should move.
LAYER_METRICS = [
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("algfile.parse.calls", "count"), ("algfile.parse.self_s", "s"), ("algfile.emit.self_s", "s"),
    ("fields.parse_field.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"), ("linalg.rref.cells", "count"),
    ("linalg.rref.nnz", "count"), ("linalg.rref.pivots", "count"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.self_s", "s"),
    ("linalg.complement_in.calls", "count"), ("linalg.complement_in.self_s", "s"),
    ("linalg.complement_in.from_rows_calls", "count"),
    ("linalg.from_rows.calls", "count"), ("linalg.from_rows.self_s", "s"),
    ("linalg.matrix_init.calls", "count"), ("linalg.matrix_init.self_s", "s"),
    ("linalg.matrix_init.cells", "count"),
    ("linalg.inverse.calls", "count"), ("linalg.inverse.self_s", "s"),
    ("linalg.max_coeff_bits", "bits"), ("linalg.fill_ratio", "ratio"),
    ("algebra.axiom_report.calls", "count"), ("algebra.axiom_report.self_s", "s"),
    ("algebra.center.self_s", "s"), ("algebra.derived.self_s", "s"),
    ("algebra.quotient_algebra.calls", "count"), ("algebra.quotient_algebra.self_s", "s"),
    ("algebra.hom_to_field.calls", "count"), ("algebra.hom_to_field.self_s", "s"),
    ("cohomology.h2.calls", "count"), ("cohomology.h2.self_s", "s"),
    ("cohomology.h2.reuse_ratio", "ratio"), ("cohomology.z2_space.self_s", "s"),
    ("cohomology.class_coordinates.calls", "count"), ("cohomology.class_coordinates.self_s", "s"),
    ("cohomology.section_cocycle.self_s", "s"), ("cohomology.cocycle_defects.self_s", "s"),
    ("extensions.cover.calls", "count"), ("extensions.cover.self_s", "s"),
    ("extensions.cover.reuse_ratio", "ratio"), ("extensions.z_star.calls", "count"),
    ("extensions.build_central_extension.self_s", "s"),
] + [
    (f"sequences.{fn}.{kind}", unit)
    for fn in ("verify_five_term", "verify_inf_delta", "tra_image_check",
               "unicentrality_criteria", "stallings_check")
    for kind, unit in (("calls", "count"), ("self_s", "s"))
] + [("generators.self_s", "s")]


class LayerTotals:
    """Sums span self times and counters over traced commands."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.max_coeff_bits = 0

    def add(self, doc: dict) -> list[str]:
        """Fold one command's spans in; return trace-integrity problems."""
        spans = doc["spans"]
        selfs = self_times(spans)
        s = self.sums
        in_complement = [False] * len(spans)
        for i, (span, self_s) in enumerate(zip(spans, selfs)):
            name, parent = span[0], span[3]
            if parent >= 0:
                in_complement[i] = in_complement[parent] or spans[parent][0] == "linalg.complement_in"
            if name == COUNT_SPAN:
                continue
            s[f"{name}.calls"] += 1
            s[f"{name}.self_s"] += self_s
            if name == "linalg.from_rows" and in_complement[i]:
                s["linalg.complement_in.from_rows_calls"] += 1
        for key, value in doc["counters"].items():
            if key == "linalg.max_coeff_bits":
                self.max_coeff_bits = max(self.max_coeff_bits, value)
            else:
                s[key] += value
        for key, value in doc["distinct"].items():
            s[f"{key}.distinct"] += value
        s["cli.import_s"] += doc.get("import_s", 0.0)
        return integrity_problems(spans, selfs)

    def metrics(self, passes: int, generators_self_s: float) -> dict:
        s = self.sums
        out = {}
        for name, unit in LAYER_METRICS:
            if name.endswith(".reuse_ratio"):
                span = name[: -len(".reuse_ratio")]
                calls = s[f"{span}.calls"]
                # Distinct inputs per call; no calls means no repeated work.
                value = s[f"{span}.distinct"] / calls if calls else 1.0
            elif name == "linalg.fill_ratio":
                cells = s["linalg.rref.cells"]
                value = s["linalg.rref.nnz"] / cells if cells else 0.0
            elif name == "linalg.max_coeff_bits":
                value = self.max_coeff_bits
            elif name == "generators.self_s":
                value = generators_self_s
            else:
                value = s[name] / passes
            out[name] = (value, unit)
        return out


def traced_setup(workload: str, seed: int, outdir: Path) -> tuple[float, list[str]]:
    """Build the corpus once more under the tracer; return the self time
    spent in ``trialg.generators`` and any span-integrity problems."""
    import trialg.cli  # noqa: F401  (the tracer wraps every trialg module)

    tracer = Tracer("setup")
    tracer.install()
    workloads.build(workload, seed, outdir)
    spans, selfs = tracer.spans, self_times(tracer.spans)
    gen_self_s = sum(x for sp, x in zip(spans, selfs) if sp[0] == "generators")
    return gen_self_s, integrity_problems(spans, selfs)


# -- one workload ---------------------------------------------------------


def timed_setup(workload: str, seed: int, corpus: Path, times: list):
    """Build the corpus at least SETUP_REPEATS times and for SETUP_MIN_S,
    appending each build time to ``times``; ``setup_s`` is their median."""
    spent, repeats = 0.0, 0
    while repeats < SETUP_REPEATS or spent < SETUP_MIN_S:
        shutil.rmtree(corpus, ignore_errors=True)
        start = time.perf_counter()
        cmds = workloads.build(workload, seed, corpus)
        times.append(time.perf_counter() - start)
        spent, repeats = spent + times[-1], repeats + 1
    return cmds


def run_probes(workdir: Path) -> list[Result]:
    results = []
    for cmd in workloads.known_defect_probes(workdir):
        res = run_command(cmd, workdir, PROBE_DEADLINE_S)
        check(res, workdir, {})
        results.append(res)
    return results


def print_metrics(title: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{title} {name} = {value:.6g} {unit}")


def print_failures(results) -> None:
    for res in results:
        for problem in res.problems:
            print(f"FAIL {res.cmd.id}: {problem}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: dict,
                 spec: dict) -> dict:
    """Run one workload and print its report; return the JSON result object."""
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        # Compile the program's bytecode once, as an installed copy would
        # have, so the first timed command does not pay for it.
        subprocess.run([sys.executable, "-c", "import trialg.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
        corpus, setup_times = workdir / "corpus", []
        cmds = timed_setup(workload, seed, corpus, setup_times)
        reference: dict = {}
        traced, traced_walls, setup_problems = [], [], []
        if trace:
            gen_self_s, setup_problems = traced_setup(workload, seed, workdir / "traced")
            results, wall = run_pass(cmds, corpus, expected, reference)
            plain, plain_walls = [results], [wall]
            traced, traced_walls = loop_passes(cmds, corpus, expected, reference, seconds,
                                               traced=True)
        else:
            plain, _ = loop_passes(
                cmds, corpus, expected, reference, seconds, min_passes=MIN_PASSES,
                before_pass=lambda: timed_setup(workload, seed, corpus, setup_times))
        probes = run_probes(workdir) if workload == workloads.PROBED_WORKLOAD else []

        all_results = [r for p in plain + traced for r in p]
        layer = LayerTotals()
        for res in all_results:
            if res.trace is not None:
                res.problems += layer.add(res.trace)
        attempted = len(all_results)
        failed = sum(1 for r in all_results if r.problems) + len(setup_problems)
        print_failures(all_results)
        for problem in setup_problems:
            print(f"FAIL setup: {problem}")

        print(f"# {len(cmds)} commands per pass; {len(plain)} plain pass(es)"
              + (f", {len(traced)} traced pass(es)" if trace else ""))
        e2e = end_to_end(plain, setup_times)
        print_metrics("e2e", e2e)
        if "cmd_s.tail" in e2e:
            pct = 100.0 * (len(cmds) - TAIL_BEYOND) / len(cmds)
            print(f"# cmd_s.tail is p{pct:.1f} of {len(cmds) * len(plain)} command samples")
        probe_failed = sum(1 for r in probes if r.problems)
        for res in probes:
            state = "missed deadline" if res.timed_out else f"exit {res.rc}"
            print(f"# known defect {res.cmd.input}: {state}, expected exit 2"
                  + (" (still failing)" if res.problems else " (fixed)"))
        print(f"e2e failed_ratio = {(failed + probe_failed) / (attempted + len(probes)):.6g} ratio"
              + (f"  ({probe_failed} of them known-defect probes)" if probes else ""))

        if trace:
            layers = layer.metrics(len(traced), gen_self_s)
            print_metrics("layer", layers)
            traced_run_s = statistics.median(traced_walls)
            overhead = traced_run_s - plain_walls[0]
            print(f"# tracing overhead = {overhead:.6g} s "
                  f"({100.0 * overhead / plain_walls[0]:.1f} % of the plain pass)")
            wanted, source = spec["per_layer"], layers
        else:
            wanted, source = spec["end_to_end"], e2e
        metrics = {}
        for m in wanted:
            value, unit = source[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(workload: str, seed: int, expected: dict) -> int:
    """Store the output digest of every command of one plain pass."""
    workdir = WORK_DIR / f"record-{workload}-{os.getpid()}"
    try:
        cmds = workloads.build(workload, seed, workdir)
        results, _ = run_pass(cmds, workdir, {}, {})
        bad = [r for r in results if r.problems]
        print_failures(bad)
        if bad:
            return 1
        for res in results:
            expected[input_key(res.cmd, workdir)] = res.digest
        print(f"# recorded {len(results)} digests for {workload} seed {seed}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the output digests of this seed in expected.json")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    expected = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    if args.record:
        rc = max(record(n, args.seed, expected) for n in names)
        if rc == 0:
            EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return rc
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), expected, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
