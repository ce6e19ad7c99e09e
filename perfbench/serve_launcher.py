"""Start ``repro serve`` with the span wrappers installed.

Used for the traced ``serve_mix`` run::

    python perfbench/serve_launcher.py --spans-dir .perfbench/spans \\
        serve --jobs 2 --port 0

The wrappers are installed before the server starts, so forked engine
workers inherit them; each worker writes its spans to ``--spans-dir``
when it exits, and this process writes its own after the server stops.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from spans import SpanRecorder


def main() -> int:
    """Install the recorder, run the CLI, write the spans."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", type=Path, required=True)
    args, cli_args = parser.parse_known_args()
    args.spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder(dump_dir=args.spans_dir)
    recorder.install()
    recorder.follow_forks()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
