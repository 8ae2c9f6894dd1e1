"""Run one metabayes CLI command with spans recorded.

    python bench/cli_child.py SPANS_JSON <metabayes cli arguments...>

The traced counterpart of ``python -m metabayes.cli``: it imports the
package, wraps the traced functions (see ``spans.py``), runs the command,
writes the spans of this process to SPANS_JSON and exits with the
command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter_ns()
    import metabayes.cli

    imported = time.perf_counter_ns()
    from spans import Tracer

    tracer = Tracer()
    tracer.record("package.import", start, imported)
    tracer.install()
    try:
        return metabayes.cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
