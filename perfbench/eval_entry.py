"""`lvrc eval` with span shims installed, for toy-eval's traced run.

    python3 perfbench/eval_entry.py SPANS_JSON OP_ID eval --config ... REPORT

Installs the shims, calls ``lvrc.cli.main`` with the remaining arguments,
restores the originals and writes the spans to SPANS_JSON.
"""

import sys

import spans


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import lvrc.cli

    tracer = spans.Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        rc = lvrc.cli.main(argv)
    finally:
        tracer.restore()
    tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
