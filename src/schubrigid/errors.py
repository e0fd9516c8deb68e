"""Exception hierarchy shared by the library and the CLI.

Exit-code contract: parse/validation problems exit 1, engine scope limits
(unsupported kind, unsupported degeneration, enumeration cap) exit 2, and so
do usage errors (kind ``usage``: arguments the CLI parser rejects, such as a
missing required option or an option the command does not take).
"""
from __future__ import annotations


class SchubertError(Exception):
    """Base class for all engine errors."""

    kind = "error"
    exit_code = 1

    def __init__(self, message, location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def to_json(self):
        out = {"kind": self.kind, "message": self.message}
        if self.location is not None:
            out["location"] = self.location
        return out


class ParseError(SchubertError):
    kind = "parse"
    exit_code = 1


class UsageError(SchubertError):
    """Command-line arguments the parser rejected; ``usage`` holds the usage
    and error lines argparse prints for them."""

    kind = "usage"
    exit_code = 2

    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


class ValidationError(SchubertError):
    kind = "validation"
    exit_code = 1

    def __init__(self, violations, location=None):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations), location)


class SpaceMismatchError(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class NonEssentialSubIndexError(ValidationError):
    def __init__(self, ref):
        super().__init__(["rigidity undefined for non-essential sub-index %s" % (ref,)])


class UnsupportedKindError(SchubertError):
    kind = "unsupported-kind"
    exit_code = 2


class UnsupportedDegenerationError(SchubertError):
    kind = "unsupported-degeneration"
    exit_code = 2
    partial_trace = None  # the degeneration machine's trace up to the error


class EnumerationCapError(SchubertError):
    kind = "enumeration-cap"
    exit_code = 2


class CoefficientOverflowError(SchubertError):
    kind = "overflow"
    exit_code = 2
