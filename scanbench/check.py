"""Correctness gate behind the benchmark's failure count.

Every seed gets the invariant checks.  The default seed is also compared
row by row with reference rows that the program wrote before this
benchmark existed (``reference/<workload>.csv``, made at commit f559c96).
"""

from __future__ import annotations

import csv
import io
import math
import os
from typing import List, Optional

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
DEFAULT_SEED = 0

MI_TOL = 1e-9        # -I3, I(A:C), I(A:D) and I(A:CD) = 2
TSW_TOL = 1e-6       # exact-path steerable weights
BOUND_TOL = 1e-6     # BoundTrackingAccelerator's default bound_tol
IDENTITY_TOL = 1e-9  # -T3 = TSWtot - TSWC - TSWD, TSWtot constant

_NUMERIC = ["t", "minusI3", "minusT3", "IAC", "IAD", "TSWC", "TSWD",
            "TSWtot"]


def parse_rows(text: str) -> List[dict]:
    """Rows of the program's scan CSV as dicts of floats plus status."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        row = {k: float(rec[k]) for k in _NUMERIC}
        row["status"] = rec["status"]
        rows.append(row)
    return rows


def reference_rows(workload: str) -> List[dict]:
    with open(os.path.join(REFERENCE_DIR, workload + ".csv")) as fh:
        return parse_rows(fh.read())


def _row_problems(row: dict, t_expected: float, tsw_tot: float,
                  ref: Optional[dict]) -> List[str]:
    out = []
    if row["status"].startswith("failed"):
        out.append(row["status"])
    if any(math.isnan(row[k]) for k in _NUMERIC):
        out.append("nan value")
        return out
    if abs(row["t"] - t_expected) > 1e-9 * max(1.0, abs(t_expected)):
        out.append(f"t={row['t']} expected {t_expected}")
    i_acd = row["minusI3"] + row["IAC"] + row["IAD"]
    if abs(i_acd - 2.0) > MI_TOL:
        out.append(f"I(A:CD)={i_acd!r}")
    for k in ("TSWC", "TSWD", "TSWtot"):
        if not 0.0 <= row[k] <= 1.0:
            out.append(f"{k}={row[k]!r} outside [0, 1]")
    if abs(row["TSWtot"] - tsw_tot) > IDENTITY_TOL:
        out.append(f"TSWtot={row['TSWtot']!r} not constant")
    t3 = row["TSWtot"] - row["TSWC"] - row["TSWD"]
    if abs(row["minusT3"] - t3) > IDENTITY_TOL:
        out.append(f"minusT3={row['minusT3']!r} != {t3!r}")
    if ref is None:
        return out
    for k in ("minusI3", "IAC", "IAD"):
        if abs(row[k] - ref[k]) > MI_TOL:
            out.append(f"{k}={row[k]!r} reference {ref[k]!r}")
    for k in ("TSWC", "TSWD", "TSWtot"):
        if row["status"] == "bounded" and ref[k] <= BOUND_TOL:
            # a bounded weight is a certified upper bound, not a value
            if row[k] > BOUND_TOL:
                out.append(f"bounded {k}={row[k]!r} above {BOUND_TOL:g}")
        elif abs(row[k] - ref[k]) > TSW_TOL:
            out.append(f"{k}={row[k]!r} reference {ref[k]!r}")
    return out


def check_scan(workload: str, seed: int, csv_text: str,
               times: List[float]) -> dict:
    """Per-row verdicts of one scan.

    Returns ``{"attempted", "failed", "reference_checked", "problems"}``:
    one grid point attempted per expected time, failed when its row is
    missing, labelled failed, or breaks a check.
    """
    rows = parse_rows(csv_text)
    ref = reference_rows(workload) if seed == DEFAULT_SEED else None
    if ref is not None and len(ref) != len(times):
        raise ValueError(f"reference for {workload} has {len(ref)} rows, "
                         f"the workload {len(times)} points")
    problems = {}
    tsw_tot = next((r["TSWtot"] for r in rows
                    if not math.isnan(r["TSWtot"])), math.nan)
    for i, t in enumerate(times):
        if i >= len(rows):
            problems[i] = ["row missing"]
            continue
        found = _row_problems(rows[i], t, tsw_tot,
                              None if ref is None else ref[i])
        if found:
            problems[i] = found
    if len(rows) > len(times):
        problems[len(times)] = [f"{len(rows) - len(times)} extra rows"]
    return {"attempted": len(times), "failed": len(problems),
            "reference_checked": ref is not None, "problems": problems}
