"""Launch ``repro serve`` with the layer wrappers installed.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/serve_traced.py SPANS_JSON

Binds a free port (printed on stderr like ``repro serve`` does), serves
until SIGTERM, drains, then writes ``{"spans": [...], "throttled": n}``
to ``SPANS_JSON``.  The cache root is ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()

    from repro.api import Analyzer
    from repro.cache import ResultCache
    from repro.service import create_server, run_server

    analyzer = Analyzer(cache=ResultCache())
    try:
        server = create_server(port=0, analyzer=analyzer, verbose=True)
        code = run_server(server)
    finally:
        analyzer.close()
    tracer.dump(argv[1], throttled=server.admission.rejected)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
