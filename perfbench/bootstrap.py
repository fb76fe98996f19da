"""Start one CLI job with the layer tracer installed.

    python3 perfbench/bootstrap.py SPANS_FILE OP_ID -- <cli arguments>

Installs the tracer over the library's public names in this fresh
interpreter, runs ``toeplitz_forge.cli.main`` on the arguments, writes the
in-memory spans to SPANS_FILE and exits with the CLI's exit code.  The
job still starts cold: nothing is imported before the tracer is set up.
"""

import json
import sys

from layers import Tracer


def main() -> int:
    spans_file, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: bootstrap.py SPANS_FILE OP_ID -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    from toeplitz_forge import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
