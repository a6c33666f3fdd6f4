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

import numpy as np

CSV_COLUMNS = ("t", "S_vn_A", "S2_A", "S_as_A", "I_AB",
               "lambda_A_alg", "lambda_A_vol", "bound_lower", "bound_upper",
               "source", "trusted")


def format_float(x) -> str:
    """17 significant digits; ``None`` and non-finite values print as "nan"."""
    if x is None or not math.isfinite(x):
        return "nan"
    return "%.17g" % x


# one record field per CSV column, named as the header in lower case
ROW_DTYPE = np.dtype([(name.lower(), "f8") for name in CSV_COLUMNS[:-2]]
                     + [("source", "U8"), ("trusted", "?")])
_ROW_FORMAT = ",".join(["%.17g"] * (len(CSV_COLUMNS) - 2) + ["%s", "%d"]) + "\n"


def csv_rows(**columns) -> np.recarray:
    """The CSV table: one record per stored time ``t``, a field per CSV column.

    Each keyword is a field of :data:`ROW_DTYPE` with an array of one value
    per row or a scalar for every row; None is NaN.  A missing or unknown
    column is a TypeError.
    """
    if set(columns) != set(ROW_DTYPE.names):
        raise TypeError(f"csv_rows needs exactly the columns {ROW_DTYPE.names}, "
                        f"got {tuple(columns)}")
    rows = np.empty(len(columns["t"]), dtype=ROW_DTYPE)
    for name, values in columns.items():
        rows[name] = np.nan if values is None else values
    return rows.view(np.recarray)


def write_csv(path, rows) -> None:
    """Write a :func:`csv_rows` table; a non-finite float prints as "nan"."""
    table = np.asarray(rows)   # a plain array's fields read faster than a recarray's
    floats = [np.where(np.isfinite(table[name]), table[name], np.nan).tolist()
              for name in ROW_DTYPE.names[:-2]]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for cells in zip(*floats, table["source"].tolist(), table["trusted"].tolist()):
            fh.write(_ROW_FORMAT % cells)


@dataclass
class RunReport:
    """Everything one scenario run produced, with structured warnings.

    ``failures`` are violated invariants (nonzero exit from the CLI);
    ``warnings`` are expected conditions worth surfacing (truncation leak,
    optimizer divergence toward the cone boundary, ...).  ``rows`` is the
    CSV table of :func:`csv_rows`, empty until a pipeline fills it.
    """

    scenario_id: str
    config_hash: str
    sections: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rows: np.recarray = field(default_factory=lambda: np.recarray(0, dtype=ROW_DTYPE))

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
