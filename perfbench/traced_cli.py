"""Run one fstclock command with the tracing wrappers installed.

    python perfbench/traced_cli.py SPANS.json OUT_DIR <fstclock command and flags>

The spans of the command are written to SPANS.json when it ends; OUT_DIR is
the command's output directory, whose size is recorded on its ``cli`` span.
The exit code is the command's own.
"""
import sys

from tracing import Tracer, traced_main


def main(argv: list[str]) -> int:
    spans_path, out_dir, *command = argv
    tracer = Tracer()
    tracer.install()
    try:
        return traced_main(tracer, command, out_dir)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
