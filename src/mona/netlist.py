"""Line-oriented netlist parser.

Grammar (keywords case-insensitive, ``#`` starts a comment)::

    R <name> <n+> <n-> <resistance_ohm>
    C <name> <n+> <n-> <farad>
    L <name> <n+> <n-> <henry>
    V <name> <n+> <n-> SIN(<amplitude> <hz> [<phase_rad>]) | DC <volt>
    I <name> <n+> <n-> SIN(<amplitude> <hz> [<phase_rad>]) | DC <ampere>
    D <name> <n+> <n-> IS=<ampere> VT=<volt> RP=<ohm>
    M <name> <w1+> <w1-> [<w2+> <w2-> ...] FIELD=<mesh-ref>

Node names are arbitrary tokens; ``0`` and ``gnd`` are ground.  Remaining
nodes get dense ids in order of first appearance.  Resistors are specified
by resistance but stored as conductance.  Branch order is file order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import DiodeParams, NetlistElement
from .errors import NetlistError
from .sources import Waveform

__all__ = ["ParsedNetlist", "parse_netlist"]

GROUND_NAMES = ("0", "gnd")

_SIN = re.compile(r"^sin\s*\(\s*(.*?)\s*\)$", re.IGNORECASE | re.DOTALL)
_DC = re.compile(r"^dc\s+(\S+)$", re.IGNORECASE)


@dataclass
class ParsedNetlist:
    """Parsed elements plus the node-name table (ground is id 0)."""

    elements: tuple
    node_ids: dict          # name -> id
    node_names: tuple       # id -> canonical name, index 0 is ground

    @property
    def n_nodes(self) -> int:
        return len(self.node_names) - 1


class _NodeTable:
    def __init__(self):
        self.ids = {}
        self.names = ["0"]

    def resolve(self, token: str) -> int:
        if token.lower() in GROUND_NAMES:
            return 0
        if token not in self.ids:
            self.ids[token] = len(self.names)
            self.names.append(token)
        return self.ids[token]


def _number(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NetlistError(f"{what}: not a number: {token!r}", line=line) from None
    if not math.isfinite(value):
        raise NetlistError(f"{what}: not a finite number: {token!r}", line=line)
    return value


def _positive(value: float, line: int, what: str) -> float:
    if not value > 0.0:
        raise NetlistError(f"{what} must be positive, got {value}", line=line)
    return value


def _parse_waveform(text: str, line: int) -> Waveform:
    match = _SIN.match(text)
    if match:
        parts = match.group(1).split()
        if len(parts) not in (2, 3):
            raise NetlistError("SIN needs amplitude, frequency, and optional phase",
                               line=line)
        amp = _number(parts[0], line, "amplitude")
        freq = _positive(_number(parts[1], line, "frequency"), line, "frequency")
        phase = _number(parts[2], line, "phase") if len(parts) == 3 else 0.0
        return Waveform.sine(amp, freq, phase)
    match = _DC.match(text)
    if match:
        return Waveform.dc(_number(match.group(1), line, "DC value"))
    raise NetlistError(f"cannot parse source value {text!r} (expected SIN(...) or DC v)",
                       line=line)


def parse_netlist(text: str) -> ParsedNetlist:
    """Parse netlist text; raises :class:`NetlistError` with line numbers."""
    table = _NodeTable()
    elements = []
    names_seen = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        kind = tokens[0].upper()
        if kind not in ("R", "C", "L", "V", "I", "D", "M"):
            raise NetlistError(f"unknown element kind {tokens[0]!r}", line=lineno)
        if len(tokens) < 2:
            raise NetlistError("element needs a name", line=lineno)
        name = tokens[1]
        if name in names_seen:
            raise NetlistError(f"duplicate element name {name!r}", line=lineno)
        names_seen.add(name)

        try:
            element = _parse_element(kind, name, tokens[2:], table, lineno)
        except ValueError as exc:  # re-raise element invariant violations with the line
            raise NetlistError(str(exc), line=lineno) from exc
        elements.append(element)

    if not elements:
        raise NetlistError("netlist contains no elements")
    return ParsedNetlist(elements=tuple(elements), node_ids=dict(table.ids),
                         node_names=tuple(table.names))


def _parse_element(kind, name, rest, table, lineno) -> NetlistElement:
    if kind == "M":
        if len(rest) < 3:
            raise NetlistError("device needs terminal pairs and FIELD=<ref>", line=lineno)
        field_tok = rest[-1]
        if not field_tok.upper().startswith("FIELD="):
            raise NetlistError("device line must end with FIELD=<ref>", line=lineno)
        field_ref = field_tok[len("FIELD="):]
        if not field_ref:
            raise NetlistError("missing FIELD reference", line=lineno)
        node_toks = rest[:-1]
        if len(node_toks) < 2 or len(node_toks) % 2:
            raise NetlistError("device needs two terminals per winding", line=lineno)
        nodes = tuple(table.resolve(tok) for tok in node_toks)
        return NetlistElement(kind="M", name=name, nodes=nodes, field_ref=field_ref)

    if len(rest) < 3:
        raise NetlistError(f"{kind} element needs two nodes and a value", line=lineno)
    nodes = (table.resolve(rest[0]), table.resolve(rest[1]))
    value_toks = rest[2:]

    if kind in ("R", "C", "L"):
        if len(value_toks) != 1:
            raise NetlistError(f"{kind} element takes exactly one value", line=lineno)
        what = {"R": "resistance", "C": "capacitance", "L": "inductance"}[kind]
        value = _positive(_number(value_toks[0], lineno, what), lineno, what)
        if kind == "R":
            value = 1.0 / value  # stored as conductance
        return NetlistElement(kind=kind, name=name, nodes=nodes, value=value)

    if kind in ("V", "I"):
        waveform = _parse_waveform(" ".join(value_toks), lineno)
        return NetlistElement(kind=kind, name=name, nodes=nodes, waveform=waveform)

    # diode: IS= VT= RP= in any order
    params = {}
    for tok in value_toks:
        if "=" not in tok:
            raise NetlistError(f"diode parameter {tok!r} must look like KEY=value",
                               line=lineno)
        key, val = tok.split("=", 1)
        key = key.upper()
        if key not in ("IS", "VT", "RP"):
            raise NetlistError(f"unknown diode parameter {key!r}", line=lineno)
        params[key] = _positive(_number(val, lineno, key), lineno, key)
    missing = {"IS", "VT", "RP"} - set(params)
    if missing:
        raise NetlistError(f"diode is missing parameters {sorted(missing)}", line=lineno)
    diode = DiodeParams(saturation_current=params["IS"], thermal_voltage=params["VT"],
                        parallel_resistance=params["RP"])
    return NetlistElement(kind="D", name=name, nodes=nodes, diode=diode)

