"""Ground-truth gate: decide whether one op's answer is right.

The gate reads what a CLI user would read: the diagnostics of
``bundle.to_json()`` and the tables ``write_bundle`` would write.  It applies
its own thresholds to the reported residuals instead of trusting the
program's pass flags.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

import numpy as np

from workloads import Truth, phi0_values

# acceptance criterion 4: direct solve recovers phi0; two-path discrepancy
PHI_RTOL = 1e-6
TWO_PATH_TOL = 1e-6
# criterion 8e: uniform round trip, relative, at interior points |s| <= 0.9
UNIFORM_RTOL = 1e-4
UNIFORM_INTERIOR = 0.9
# criterion 5: jump, det and no-jump identities of Gamma
GAMMA_TOLS = {"jump_residual": 1e-7, "det_drift": 1e-8,
              "nojump_gamma_f": 1e-8, "nojump_gt_gamma_inv": 1e-8}

WRONG_ANSWER = "wrong_answer"
_EPS = float(np.finfo(float).eps)


@dataclass
class Outcome:
    """What one op returned: its latency and either an exception or an answer."""

    latency_s: float
    exception: str | None = None  # class name of what the op raised
    message: str | None = None
    payload: str | None = None  # bundle.to_json()
    tables: dict | None = None  # bundle.tables
    warnings: list = field(default_factory=list)  # category names, in order


@dataclass(frozen=True)
class Verdict:
    ok: bool
    cause: str | None = None  # exception class name or WRONG_ANSWER
    error: float | None = None  # the answer's error against ground truth


def check(truth: Truth, outcome: Outcome) -> Verdict:
    if outcome.exception is not None:
        if truth.kind == "range_violation" and outcome.exception == "RangeViolationError":
            return Verdict(True)
        return Verdict(False, outcome.exception)
    if truth.kind == "range_violation":
        return Verdict(False, WRONG_ANSWER)
    diag = json.loads(outcome.payload)["diagnostics"]
    ok, error = _CHECKS[truth.kind](truth, diag, outcome.tables)
    return Verdict(True, None, error) if ok else Verdict(False, WRONG_ANSWER, error)


def _table_error(truth, rows, interior=None):
    """max |answer - phi0| / max |phi0| over table rows (j, x, re, im)."""
    rows = np.asarray(rows, dtype=float)
    got = rows[:, 2] + 1j * rows[:, 3]
    want = np.empty(len(rows))
    keep = np.ones(len(rows), dtype=bool)
    for j, (a, b) in enumerate(truth.intervals):
        on = rows[:, 0] == j
        want[on] = phi0_values(truth, j, rows[on, 1])
        if interior is not None:
            s = (2.0 * rows[on, 1] - (a + b)) / (b - a)
            keep[on] = np.abs(s) <= interior
    scale = np.max(np.abs(want[keep]))
    return max(float(np.max(np.abs(got[keep] - want[keep])) / scale), _EPS)


def _check_phi(truth, diag, tables):
    error = _table_error(truth, tables["phi"])
    two_path = diag["two_path_discrepancy"]["value"]
    return error <= PHI_RTOL and two_path <= TWO_PATH_TOL, error


def _check_in_range(truth, diag, tables):
    scale = 1.0 + max(abs(c) for c in diag["c"])
    defects = [diag[k]["value"] for k in ("general_defect", "symmetric_defect")
               if k in diag]
    return diag["in_range"] is True, max(max(defects) / scale, _EPS)


def _check_out_of_range(truth, diag, tables):
    return diag["in_range"] is False, None


def _check_gamma(truth, diag, tables):
    values = {k: diag[k]["value"] for k in GAMMA_TOLS}
    ok = all(values[k] <= tol for k, tol in GAMMA_TOLS.items())
    return ok, max(max(values.values()), _EPS)


def _check_injective(truth, diag, tables):
    ok = np.isfinite(diag["sigma_min"]) and diag["sigma_min"] > 0.0
    if truth.spd:
        ok = ok and diag["j_positive"] is True
    return bool(ok), None


def _check_uniform_f(truth, diag, tables):
    error = _table_error(truth, tables["f"], interior=UNIFORM_INTERIOR)
    return error <= UNIFORM_RTOL, error


_CHECKS = {
    "phi": _check_phi,
    "in_range": _check_in_range,
    "out_of_range": _check_out_of_range,
    "gamma": _check_gamma,
    "injective": _check_injective,
    "uniform_f": _check_uniform_f,
}


def corrupt(truth: Truth, outcome: Outcome) -> Outcome:
    """A copy of a correct outcome with a wrong answer the gate must reject."""
    if truth.kind == "range_violation":
        return replace(outcome, exception=None,
                       payload=json.dumps({"diagnostics": {}}), tables={})
    doc = json.loads(outcome.payload)
    diag = doc["diagnostics"]
    tables = copy.deepcopy(outcome.tables)
    if truth.kind in ("phi", "uniform_f"):
        name = "phi" if truth.kind == "phi" else "f"
        tables[name] = [(j, x, re * 1.001, im) for j, x, re, im in tables[name]]
    elif truth.kind in ("in_range", "out_of_range"):
        diag["in_range"] = not diag["in_range"]
    elif truth.kind == "gamma":
        diag["jump_residual"]["value"] = 1e-3
    elif truth.kind == "injective":
        diag["sigma_min"] = 0.0
    return replace(outcome, payload=json.dumps(doc), tables=tables)
