"""``python -m repro.ops`` — stdlib-only ops CLI.

Two subcommands:

* ``tail HOST:PORT`` — connect to a :class:`MetricsServer` and print
  its newline-delimited JSON rows as they arrive.  ``--limit N`` exits
  after N rows (handy for scripts); by default it follows the stream
  until the server closes it after the run's ``finish`` row.
* ``inspect PATH`` — print a JSON summary of a checkpoint file:
  format version, seed, clock position, record census, node kinds,
  RNG stream names, and the descriptor table's entries, the
  references to them and their ratio (how much sharing the table
  saved over writing every reference out).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import List, Optional

from repro.errors import CheckpointError
from repro.ops.checkpoint import inspect_checkpoint


def _parse_endpoint(endpoint: str) -> tuple:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SystemExit(f"invalid endpoint {endpoint!r}; expected HOST:PORT")
    return host, int(port)


def _tail(endpoint: str, limit: Optional[int], out) -> int:
    host, port = _parse_endpoint(endpoint)
    try:
        connection = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        print(f"cannot connect to {endpoint}: {exc}", file=sys.stderr)
        return 1
    # Follow semantics: once connected, block until the server closes
    # the stream (it does so after the run's finish row) — a quiet
    # simulation mid-cycle must not look like a dead connection.
    connection.settimeout(None)
    printed = 0
    with connection, connection.makefile("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.rstrip("\n")
            if not line:
                continue
            print(line, file=out)
            printed += 1
            if limit is not None and printed >= limit:
                break
    return 0


def _inspect(path: str, out) -> int:
    try:
        summary = inspect_checkpoint(path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.ops",
        description="Tail a live metrics stream or inspect a checkpoint.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    tail = commands.add_parser("tail", help="follow a metrics stream")
    tail.add_argument("endpoint", help="HOST:PORT of a MetricsServer")
    tail.add_argument(
        "--limit",
        type=int,
        default=None,
        help="exit after this many rows (default: follow until EOF)",
    )
    inspect = commands.add_parser("inspect", help="summarise a checkpoint")
    inspect.add_argument("path", help="checkpoint file to summarise")
    options = parser.parse_args(argv)
    if options.command == "tail":
        return _tail(options.endpoint, options.limit, out)
    return _inspect(options.path, out)


if __name__ == "__main__":
    raise SystemExit(main())
