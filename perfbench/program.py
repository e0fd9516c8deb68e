"""The one place the benchmark touches the program under test.

It imports `schubrigid.cli` from the `src/` directory of the checkout (never
from an installed copy) and runs one op, an in-process `cli.main(argv)` call,
capturing its exit code, stdout and stderr.  Outcomes are compared by
digest: the stdout text (census reports without their `generated_at` stamp)
hashed together with the exit code.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_GENERATED_AT = re.compile(r'"generated_at": "[^"]*", ')


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/schubrigid` to benchmark."""


def load_cli():
    """Import `schubrigid.cli` from this checkout's `src/` and return the module."""
    if not (SRC / "schubrigid" / "cli.py").is_file():
        raise ProgramMissing("no src/schubrigid/cli.py under %s" % ROOT)
    sys.path.insert(0, str(SRC))
    import schubrigid.cli as cli

    check_origin(cli)
    return cli


def check_origin(cli):
    if Path(cli.__file__).resolve().parent != SRC / "schubrigid":
        raise ProgramMissing("imported %s, not the checkout's copy" % cli.__file__)


def canonical_stdout(argv, text):
    """Stdout with the run-dependent census time stamp removed."""
    if argv and argv[0] == "census":
        return _GENERATED_AT.sub("", text, count=1)
    return text


def digest(exit_code, text):
    return hashlib.sha256(("%s\n%s" % (exit_code, text)).encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Outcome:
    seconds: float
    exit_code: int | None   # None when an exception escaped cli.main
    error_kind: str | None  # `kind` of the JSON error on stderr, if any
    exception: str | None   # type name of an exception that escaped cli.main
    digest: str | None      # stdout + exit code; None when an exception escaped
    text: str | None = None  # canonical stdout, kept only on request

    def record(self):
        """The golden form of this outcome: everything but the time."""
        return [self.exit_code, self.error_kind, self.exception, self.digest]


def _error_kind(stderr_text):
    """`kind` of the JSON error the CLI printed last on stderr, if any."""
    lines = stderr_text.strip().splitlines()
    if not lines:
        return None
    try:
        payload = json.loads(lines[-1])
    except ValueError:
        return None
    return payload.get("kind") if isinstance(payload, dict) else None


def call(main, argv, keep_text=False):
    """Run `main(argv)` once with stdout/stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            exit_code = main(list(argv))
        except Exception as exc:  # an escaped exception is a measured outcome
            exception = type(exc).__name__
        seconds = time.perf_counter() - start
    return outcome(argv, seconds, exit_code, exception, out.getvalue(), err.getvalue(), keep_text)


def outcome(argv, seconds, exit_code, exception, stdout, stderr, keep_text=False):
    """The Outcome of one call, from what it returned and printed."""
    if exception is not None:
        return Outcome(seconds, None, None, exception, None)
    text = canonical_stdout(argv, stdout)
    return Outcome(
        seconds,
        exit_code,
        _error_kind(stderr),
        None,
        digest(exit_code, text),
        text if keep_text else None,
    )
