"""Correctness gate: one CLI invocation's outputs against the recorded reference.

References live in refs/<workload>/ as the CSV and JSON the CLI wrote for each
CLI seed in REF_SEEDS, plus exit_codes.json. A run passes the gate when

* its exit code is neither 2 (usage) nor 3 (solver failure) and equals the
  reference's (1 is an expected verdict failure, e.g. diverging `em` paths);
* its CSV has the reference's rows, with the text columns, `n_paths` and
  `n_divergent` equal and `value`/`std_error` within REL_TOL.

Separately it reports whether the CSV and JSON are byte-identical to the
reference (SHA-256), the bar a pure speed-up must meet. A change that moves
numbers on purpose, such as a more accurate implicit solve, can stay within
the tolerance while losing byte identity.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# Monte Carlo values the CLI prints carry ~17 significant digits; 1e-6 is far
# above the change a different rounding order or a 1e-12-residual solve
# causes, and far below the standard errors of any estimate. There is no
# absolute tolerance: moment traces legitimately reach 1e-60 and below.
REL_TOL = 1e-6

EXACT_COLUMNS = ("kind", "model", "scheme", "p", "h", "t", "n_paths",
                 "n_divergent")
CLOSE_COLUMNS = ("value", "std_error")


@dataclass(frozen=True)
class Reference:
    csv_bytes: bytes
    json_bytes: bytes
    exit_code: int


@dataclass
class GateResult:
    problems: list = field(default_factory=list)
    identical: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def reference_paths(workload: str, cli_seed: int):
    base = REFS / workload / f"seed-{cli_seed}"
    return base.with_suffix(".csv"), base.with_suffix(".json")


def load_reference(workload: str, cli_seed: int) -> Reference:
    csv_path, json_path = reference_paths(workload, cli_seed)
    codes = json.loads((REFS / workload / "exit_codes.json").read_text())
    return Reference(csv_path.read_bytes(), json_path.read_bytes(),
                     int(codes[str(cli_seed)]))


def _rows(data: bytes) -> list:
    text = data.decode()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL)


def check(exit_code: int, csv_bytes: bytes, json_bytes: bytes,
          ref: Reference) -> GateResult:
    """Compare one invocation's exit code and outputs with its reference."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    result = GateResult()
    result.identical = (sha(csv_bytes) == sha(ref.csv_bytes)
                        and sha(json_bytes) == sha(ref.json_bytes))
    if exit_code in (2, 3):
        result.problems.append(f"exit code {exit_code} (usage or solver failure)")
    if exit_code != ref.exit_code:
        result.problems.append(
            f"exit code {exit_code}, reference {ref.exit_code}")
    try:
        got, want = _rows(csv_bytes), _rows(ref.csv_bytes)
    except (UnicodeDecodeError, csv.Error) as exc:
        result.problems.append(f"unreadable CSV: {exc}")
        return result
    if len(got) != len(want):
        result.problems.append(f"{len(got)} CSV rows, reference {len(want)}")
        return result
    for i, (g, w) in enumerate(zip(got, want)):
        for col in EXACT_COLUMNS:
            if g.get(col) != w.get(col):
                result.problems.append(
                    f"row {i} {col}={g.get(col)!r}, reference {w.get(col)!r}")
        for col in CLOSE_COLUMNS:
            try:
                same = _close(g.get(col), w.get(col))
            except (TypeError, ValueError):
                same = False
            if not same:
                result.problems.append(
                    f"row {i} {col}={g.get(col)!r}, reference {w.get(col)!r}")
    return result
