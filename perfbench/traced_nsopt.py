"""`nsopt` with spans around its public functions.

    python3 perfbench/traced_nsopt.py SPAN_FILE simplify ...

Runs `nsopt.cli.main` on the remaining arguments, exactly as
`python3 -m nsopt.cli` would, and writes the spans it recorded to
SPAN_FILE as a JSON list when the command returns.
"""

import json
import sys

import nsopt.cli

import spans


def main(argv):
    span_file, cli_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return nsopt.cli.main(cli_args)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in recorder.spans], fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
