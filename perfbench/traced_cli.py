"""Run one hetcache CLI command with spans recorded, then write the spans.

    python3 perfbench/traced_cli.py SPANS_JSON -- CLI_ARGS...

The CLI's stdout and exit code are passed through unchanged. Spans are kept
in memory and written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import sys

import hetcache
import hetcache.cli

from spans import SpanRecorder


def main(argv: list[str]) -> int:
    spans_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    recorder = SpanRecorder()
    recorder.install(hetcache)
    code = recorder.wrap("cli.main", hetcache.cli.main)(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
