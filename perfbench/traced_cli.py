"""Run one ``outgrowth`` command in a fresh interpreter with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

behaves like ``python -m outgrowth.cli COMMAND [ARGS...]`` (same output and
exit code) and, when the command ends, writes its spans and the time the
``import outgrowth.cli`` took to SPANS_FILE (``numpy.savez`` format).
"""

import sys
import time

_t0 = time.perf_counter()
import outgrowth.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import tracer  # noqa: E402


def main() -> None:
    spans_file, args = sys.argv[1], sys.argv[2:]
    rec = tracer.Tracer()
    rec.install()
    try:
        outgrowth.cli.main(args=args, prog_name="outgrowth")
    finally:
        rec.uninstall()
        rec.save(spans_file, import_s=IMPORT_S)


if __name__ == "__main__":
    main()
