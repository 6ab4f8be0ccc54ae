"""Parser, printer, and calculator for the 8-operation program language.

Programs are single flat calls over literals:

    Div(a,b)  Mul(a,b)  Avg(n...)  Sum(n...)  Diff(a,b)
    Greater(a,b)  Less(a,b)  Find(str)

Greater/Less render "Yes"/"No" with strict comparison (ties are "No").
Find performs no computation; execution yields a passthrough marker and
the caller substitutes the model-predicted answer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

OPS = ("Div", "Mul", "Avg", "Sum", "Diff", "Greater", "Less", "Find")
_BINARY = ("Div", "Mul", "Diff", "Greater", "Less")
_VARIADIC = ("Avg", "Sum")


class ParseError(ValueError):
    def __init__(self, position: int, expected: str):
        super().__init__(f"at {position}: expected {expected}")
        self.position = position
        self.expected = expected


class ArityError(ValueError):
    def __init__(self, op: str, got: int):
        super().__init__(f"{op} takes {'2 args' if op in _BINARY else 'at least 1 arg'}, got {got}")
        self.op = op
        self.got = got


class ArgTypeError(ValueError):
    def __init__(self, op: str, index: int):
        super().__init__(f"{op}: argument {index} has the wrong type")
        self.op = op
        self.index = index


class DivisionByZero(ZeroDivisionError):
    pass


class NonFinite(ValueError):
    pass


@dataclass(frozen=True)
class Program:
    op: str
    args: tuple  # floats for numeric ops, a single str for Find

    def __post_init__(self):
        _check_arity(self.op, self.args)


def _check_arity(op: str, args) -> None:
    if op not in OPS:
        raise ParseError(0, f"one of {OPS}")
    if op == "Find":
        if len(args) != 1:
            raise ArityError(op, len(args))
        if not isinstance(args[0], str):
            raise ArgTypeError(op, 0)
        return
    for i, a in enumerate(args):
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise ArgTypeError(op, i)
    if op in _BINARY and len(args) != 2:
        raise ArityError(op, len(args))
    if op in _VARIADIC and len(args) < 1:
        raise ArityError(op, len(args))


@dataclass(frozen=True)
class ExecResult:
    kind: str  # "numeric", "boolean", "passthrough"
    value: float | None = None
    truth: bool | None = None

    def render(self) -> str:
        if self.kind == "numeric":
            return render_numeric(self.value)
        if self.kind == "boolean":
            return "Yes" if self.truth else "No"
        raise ValueError("passthrough result has no rendering")


# number with optional sign, optional thousands groups, optional decimals,
# optional trailing percent sign (stripped, value unscaled)
_NUMBER_RE = re.compile(r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?%?$")
_THOUSANDS_SPLIT_RE = re.compile(r"\d$")
_THOUSANDS_NEXT_RE = re.compile(r"^\d{3}(?!\d)")

_HEAD_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\(")


def parse(source: str) -> Program:
    """Parse one program call; raises ParseError / ArityError / ArgTypeError."""
    m = _HEAD_RE.match(source)
    if not m:
        raise ParseError(0, "'Op('")
    op = m.group(1)
    if op not in OPS:
        raise ParseError(m.start(1), f"one of {OPS}")
    rest = source[m.end():]
    stripped = rest.rstrip()
    if not stripped.endswith(")"):
        raise ParseError(len(source), "')'")
    body = stripped[:-1]

    if op == "Find":
        text = body.strip()
        if not text:
            raise ArityError(op, 0)
        return Program(op=op, args=(text,))

    return _parse_numeric_args(op, body)


def _parse_numeric_args(op: str, body: str) -> Program:
    """Resolve comma ambiguity (separator vs thousands group) by arity.

    Two candidate splits are tried: every comma a separator, and commas
    matching the thousands pattern (digit ',' exactly 3 digits) merged
    into their number. If both candidates type-check, the input is
    ambiguous and rejected rather than guessed.
    """
    candidates = []
    naive = _split_args(body, merge_thousands=False)
    merged = _split_args(body, merge_thousands=True)
    for split in (naive,) if naive == merged else (naive, merged):
        try:
            candidates.append(Program(op=op, args=tuple(_parse_number(op, i, t)
                                                        for i, t in enumerate(split))))
        except (ArityError, ArgTypeError, ParseError):
            continue
    if not candidates:
        # re-raise the naive interpretation's error for a stable message
        return Program(op=op, args=tuple(_parse_number(op, i, t)
                                         for i, t in enumerate(naive)))
    if len(candidates) > 1:
        raise ParseError(0, "unambiguous argument list (thousands separator clash)")
    return candidates[0]


def _split_args(body: str, merge_thousands: bool) -> list[str]:
    if not body.strip():
        return []   # no argument at all: an arity error, not an empty one
    parts = []
    current = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == ",":
            before = "".join(current)
            after = body[i + 1:]
            is_thousands = (merge_thousands
                            and _THOUSANDS_SPLIT_RE.search(before)
                            and _THOUSANDS_NEXT_RE.match(after))
            if is_thousands:
                current.append(ch)
            else:
                parts.append(before)
                current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return [p.strip() for p in parts]


def parse_numeral(token: str) -> float | None:
    """Value of a numeral in the DSL grammar (optional sign, thousands
    commas, decimals, trailing %), or None for anything else."""
    if not _NUMBER_RE.fullmatch(token):
        return None
    return float(token.rstrip("%").replace(",", ""))


def _parse_number(op: str, index: int, token: str) -> float:
    value = parse_numeral(token)
    if value is None:
        raise ArgTypeError(op, index)
    return value


def execute(p: Program) -> ExecResult:
    a = p.args
    if p.op == "Div":
        if a[1] == 0:
            raise DivisionByZero(f"Div({format_number(a[0])}, 0)")
        return ExecResult("numeric", value=a[0] / a[1])
    if p.op == "Mul":
        return ExecResult("numeric", value=a[0] * a[1])
    if p.op == "Avg":
        return ExecResult("numeric", value=sum(a) / len(a))
    if p.op == "Sum":
        return ExecResult("numeric", value=sum(a))
    if p.op == "Diff":
        return ExecResult("numeric", value=a[0] - a[1])
    if p.op == "Greater":
        return ExecResult("boolean", truth=a[0] > a[1])
    if p.op == "Less":
        return ExecResult("boolean", truth=a[0] < a[1])
    return ExecResult("passthrough")


def format_number(x: float) -> str:
    """Minimal-digit literal: no trailing zeros, no '+', integers bare."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    text = repr(float(x))
    if "e" in text or "E" in text:
        text = f"{x:.10f}".rstrip("0").rstrip(".")
    return text


def print_program(p: Program) -> str:
    """Canonical source form, re-parseable by parse()."""
    if p.op == "Find":
        return f"Find({p.args[0]})"
    return f"{p.op}({', '.join(format_number(a) for a in p.args)})"


def render_numeric(x: float) -> str:
    """Decimal form used to compare calculator output against gold answers.

    Integers print without a decimal point; otherwise up to 6 fractional
    digits with trailing zeros stripped.
    """
    if not math.isfinite(x):
        raise NonFinite(str(x))
    if x == int(x):
        return str(int(x))
    return f"{x:.6f}".rstrip("0").rstrip(".")
