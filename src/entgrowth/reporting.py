"""CSV emission and run reports (human-readable text + machine-readable JSON).

The CSV schema is fixed: one row per output time, columns

    t, S_vn_A, S2_A, S_as_A, I_AB, lambda_A_alg, lambda_A_vol,
    bound_lower, bound_upper, source, trusted

floats printed with 17 significant digits so files round-trip losslessly
and identical configs produce byte-identical output.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

CSV_COLUMNS = ("t", "S_vn_A", "S2_A", "S_as_A", "I_AB",
               "lambda_A_alg", "lambda_A_vol", "bound_lower", "bound_upper",
               "source", "trusted")


def format_float(x) -> str:
    """17 significant digits; ``None`` and non-finite values print as "nan"."""
    if x is None or not math.isfinite(x):
        return "nan"
    return "%.17g" % x


@dataclass
class CsvRow:
    t: float
    s_vn_a: float
    s2_a: float
    s_as_a: float
    i_ab: float
    lambda_a_alg: Optional[float]
    lambda_a_vol: Optional[float]
    bound_lower: Optional[float]
    bound_upper: Optional[float]
    source: str
    trusted: bool

    def render(self) -> str:
        cells = [format_float(self.t), format_float(self.s_vn_a), format_float(self.s2_a),
                 format_float(self.s_as_a), format_float(self.i_ab),
                 format_float(self.lambda_a_alg), format_float(self.lambda_a_vol),
                 format_float(self.bound_lower), format_float(self.bound_upper),
                 self.source, "1" if self.trusted else "0"]
        return ",".join(cells)


def write_csv(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(row.render() + "\n")


@dataclass
class RunReport:
    """Everything one scenario run produced, with structured warnings.

    ``failures`` are violated invariants (nonzero exit from the CLI);
    ``warnings`` are expected conditions worth surfacing (truncation leak,
    optimizer divergence toward the cone boundary, ...).
    """

    scenario_id: str
    config_hash: str
    sections: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def add(self, name, payload):
        self.sections[name] = payload

    def warn(self, message):
        self.warnings.append(str(message))

    def fail(self, message):
        self.failures.append(str(message))

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"scenario_id": self.scenario_id, "config_hash": self.config_hash,
                "sections": _jsonify(self.sections), "warnings": list(self.warnings),
                "failures": list(self.failures), "ok": self.ok}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario_id}",
                 f"config hash: {self.config_hash}",
                 f"status: {'ok' if self.ok else 'FAILED'}", ""]
        for name, payload in self.sections.items():
            lines.append(f"[{name}]")
            lines.extend(_render_section(payload))
            lines.append("")
        if self.warnings:
            lines.append("[warnings]")
            lines.extend(f"  - {w}" for w in self.warnings)
            lines.append("")
        if self.failures:
            lines.append("[failures]")
            lines.extend(f"  - {f}" for f in self.failures)
            lines.append("")
        return "\n".join(lines)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _render_section(payload, indent="  "):
    lines = []
    payload = _jsonify(payload)
    if isinstance(payload, dict):
        for key, val in payload.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_section(val, indent + "  "))
            else:
                val_str = format_float(val) if isinstance(val, float) else str(val)
                lines.append(f"{indent}{key}: {val_str}")
    elif isinstance(payload, list):
        for val in payload:
            if isinstance(val, (dict, list)):
                lines.extend(_render_section(val, indent + "  "))
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{payload}")
    return lines
