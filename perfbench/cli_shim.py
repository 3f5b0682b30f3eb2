"""Run the CLI with the benchmark's tracer installed (traced runs only).

    python3 perfbench/cli_shim.py SPANS_FILE solve ...

Behaves like ``python -m cactus_partition.cli solve ...`` and also writes
the spans of the process, rooted at one ``cli.main`` span, to SPANS_FILE.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402

import cactus_partition.cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    span = tracer.begin("cli.main")
    try:
        return cactus_partition.cli.main(argv)
    finally:
        tracer.end(span)
        tracer.count_states()
        tracer.uninstall()
        Path(spans_file).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
