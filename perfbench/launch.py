"""Stand-in for the ``trialg`` console script, started once per command.

Usage: python3 perfbench/launch.py <rss file> <span file or -> <command id> <trialg args...>

Runs ``trialg.cli.main`` on the trialg arguments, so stdout, stderr and the
exit code are those of the plain CLI.  Given a span file (traced run), it
first times the import of ``trialg.cli``, wraps the layers listed in
``tracer.TARGETS``, and writes the recorded spans when the command ends.

Either way it writes the process's peak resident set (VmHWM, in kB) to
<rss file> on exit.  The max-RSS that ``wait4`` reports cannot be used: the
child inherits the benchmark process's high-water mark at spawn.
"""

import sys
import time


def write_peak_rss(path: str) -> None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(kb)
    except (OSError, StopIteration):
        pass  # no /proc: the benchmark falls back to wait4's max-RSS


def main() -> int:
    rss_file, span_file, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = None
    if span_file != "-":
        from tracer import Tracer

        tracer = Tracer(command_id)
        start = time.perf_counter()
    import trialg.cli

    if tracer is not None:
        tracer.import_s = time.perf_counter() - start
        tracer.install()
    try:
        return trialg.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(span_file)
        write_peak_rss(rss_file)


if __name__ == "__main__":
    sys.exit(main())
