"""Run the ``splda`` command line with tracing installed.

    python3 bench/traced_cli.py <stats.json> <splda arguments...>

Behaves as ``python3 -m splda <arguments...>`` and, once the command has
returned, writes the per-function statistics of ``bench/tracer.py`` to
``stats.json``.
"""

import json
import sys

import tracer


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    traced = tracer.install()
    code = sys.modules["splda.cli"].main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(traced.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
