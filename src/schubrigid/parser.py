"""Parsing of index literals and restriction-sequence literals.

Grammar (whitespace-insensitive):

    space   := ("G"|"F"|"OG"|"OF"|"SG"|"SF") "(" dims [";" nat] ")"
    plainA  := nat ("," nat)*
    flagged := nat "^" nat ("," nat "^" nat)*
    pair    := "(" [seq] "|" [seq] ")"
    literal := (plainA | flagged | pair) "@" space

    sequence := "F:" [dims] "|" "Q:" [quadrics] "@" space
    quadrics := nat "^" nat ("," nat "^" nat)*

Descending b-parts (the customary print order for co-conditions) are
canonicalized to the ascending storage order.  Syntax errors carry the
offending position; the validation errors name the violated invariant.
"""
from __future__ import annotations

from .errors import ParseError
from .indices import (
    SchubertIndex,
    SpaceDescriptor,
    SpaceKind,
    check_valid,
)

_KINDS = {kind.value: kind for kind in SpaceKind}
_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also takes "²" and "٤"


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError("expected %r" % ch, location=self.pos)
        self.pos += 1

    def accept(self, ch):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", location=start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's int-string digit limit
            raise ParseError("number too long", location=start) from None

    def word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos], start

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_space(text):
    scanner = _Scanner(text)
    space = _space(scanner)
    if not scanner.at_end():
        raise ParseError("trailing input after space", location=scanner.pos)
    return space


def _space(scanner):
    name, start = scanner.word()
    kind = _KINDS.get(name)
    if kind is None:
        raise ParseError("unknown space kind %r" % name, location=start)
    scanner.expect("(")
    dims = [scanner.nat()]
    while scanner.accept(","):
        dims.append(scanner.nat())
    if scanner.accept(";"):
        ambient = scanner.nat()
        steps = tuple(dims)
        if not kind.is_flag:
            raise ParseError(
                "%s takes the (k,n) form, not (dims;n)" % kind.value,
                location=scanner.pos,
            )
    else:
        if kind.is_flag:
            raise ParseError(
                "%s needs the (d1,...,dk;n) form" % kind.value, location=scanner.pos
            )
        if len(dims) != 2:
            raise ParseError("expected (k,n)", location=scanner.pos)
        steps = (dims[0],)
        ambient = dims[1]
    scanner.expect(")")
    return SpaceDescriptor(kind=kind, steps=steps, ambient=ambient)


def _entry_seq(scanner, stop_chars):
    """Parse a possibly empty comma list of nat or nat^nat entries."""
    entries = []
    if scanner.peek() in stop_chars:
        return entries
    while True:
        value = scanner.nat()
        block = scanner.nat() if scanner.accept("^") else None
        entries.append((value, block))
        if not scanner.accept(","):
            break
    return entries


def _canonicalize_b(entries):
    values = [v for v, _ in entries]
    if len(values) >= 2 and all(x > y for x, y in zip(values, values[1:])):
        entries = list(reversed(entries))
    return entries


def _build_index(a_entries, b_entries, paired):
    def split(entries):
        values = tuple(v for v, _ in entries)
        blocks = tuple(t for _, t in entries)
        if all(t is None for t in blocks):
            return values, None
        if any(t is None for t in blocks):
            raise ParseError("mixed flagged and unflagged entries")
        return values, blocks

    a, alpha = split(a_entries)
    if not paired:
        return SchubertIndex(a=a, alpha=alpha)
    b, beta = split(b_entries)
    if (alpha is None) != (beta is None) and a and b:
        raise ParseError("a and b parts must be both flagged or both plain")
    if alpha is None and beta is not None and not a:
        alpha = ()
    if beta is None and alpha is not None and not b:
        beta = ()
    return SchubertIndex(a=a, alpha=alpha, b=b, beta=beta)


def parse_index(text):
    """Parse, canonicalize and validate an index literal.

    Returns the (space, index) pair; raises ParseError or ValidationError.
    """
    scanner = _Scanner(text)
    if scanner.peek() == "(":
        scanner.expect("(")
        a_entries = _entry_seq(scanner, "|")
        scanner.expect("|")
        b_entries = _entry_seq(scanner, ")")
        scanner.expect(")")
        b_entries = _canonicalize_b(b_entries)
        index = _build_index(a_entries, b_entries, paired=True)
    else:
        a_entries = _entry_seq(scanner, "@")
        if not a_entries:
            raise ParseError("empty index", location=scanner.pos)
        index = _build_index(a_entries, (), paired=False)
    scanner.expect("@")
    space = _space(scanner)
    if not scanner.at_end():
        raise ParseError("trailing input after space", location=scanner.pos)
    # plain literal for a flagged space never validates; shape fix-ups for the
    # empty-part cases where the writer could not carry block labels
    if space.kind.is_flag and not space.kind.is_type_a and index.paired:
        if index.alpha is None and not index.a:
            index = SchubertIndex(a=(), alpha=(), b=index.b, beta=index.beta)
        if index.beta is None and not index.b:
            index = SchubertIndex(a=index.a, alpha=index.alpha, b=(), beta=())
    check_valid(space, index)
    return space, index


# ---------------------------------------------------------------------------
# restriction-sequence literals, e.g.  "F:2 | Q:6^0 @ OG(2,7)"


def parse_sequence(text):
    from .restriction import RestrictionSequence

    scanner = _Scanner(text)
    name, start = scanner.word()
    if name != "F":
        raise ParseError("sequence literal must start with 'F:'", location=start)
    scanner.expect(":")
    isotropic = []
    if scanner.peek() != "|":
        while True:
            isotropic.append(scanner.nat())
            if not scanner.accept(","):
                break
    scanner.expect("|")
    name, start = scanner.word()
    if name != "Q":
        raise ParseError("expected 'Q:' after '|'", location=start)
    scanner.expect(":")
    ladder = []
    if scanner.peek() != "@":
        while True:
            dim = scanner.nat()
            scanner.expect("^")
            corank = scanner.nat()
            ladder.append((dim, corank))
            if not scanner.accept(","):
                break
    scanner.expect("@")
    space = _space(scanner)
    if not scanner.at_end():
        raise ParseError("trailing input after space", location=scanner.pos)
    ladder.sort(key=lambda q: -q[0])
    return RestrictionSequence(
        space=space, isotropic=tuple(isotropic), ladder=tuple(ladder)
    )
