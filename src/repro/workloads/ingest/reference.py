"""Reference fingerprint table and calibration deltas.

Each of the 22 evaluated workloads has a **reference fingerprint** -
the locality signature its synthetic substitute is pinned to.
Provenance (also documented in DESIGN.md section 2):

* The three per-workload values (``rltl_1ms``, ``rmpkc``,
  ``row_hit``) are **measured** from the substitution-table generators
  at the fingerprint defaults - 20 000 records, seed 1, the paper's
  single-channel organization, ``time_scale`` 64 - and rounded.  They
  are regression anchors: ``calibrate`` re-measures the same pass and
  reports signed deltas, so any change to a generator, the address
  mapping or the fingerprint model shows up as drift per workload.
* The **paper** supplies the qualitative cross-checks the anchors were
  validated against before pinning: Figure 4a's average 1 ms-RLTL
  (86%; :data:`PAPER_AVG_RLTL_1MS`), Figure 7a's RMPKC *ordering*
  (light -> heavy left to right, reproduced by the table's ordering
  here), and Section 6.1's observation that mcf/omnetpp have the
  weakest row-level temporal locality (mcf is the smallest
  ``rltl_1ms`` below, omnetpp among the bottom three).
* ``rmpkc`` is in the fingerprint pass's IPC=1 unit (misses per kilo
  *instruction*), not simulated-cycle RMPKC - the two differ by the
  workload's achieved IPC, so RMPKC deltas are judged on a ratio.
* ``row_hit`` is the idealized in-order open-row model's hit rate;
  scheduler reordering (FR-FCFS) recovers hits the idealized model
  misses, so simulated hit rates sit above these for interleaved
  streams.

A workload whose measured fingerprint lands within the tolerances
below "calibrates"; the ``calibrate`` experiment reports the signed
deltas either way, so drift is visible long before it crosses a
threshold.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.workloads.ingest.fingerprint import WorkloadFingerprint

#: Absolute tolerance on the 1 ms-RLTL fraction.
RLTL_TOLERANCE = 0.10
#: Absolute tolerance on the row-hit rate.
ROW_HIT_TOLERANCE = 0.15
#: Ratio tolerance on RMPKC: measured must be within [ref/F, ref*F].
RMPKC_RATIO_TOLERANCE = 1.5

#: Interval the headline RLTL delta is evaluated at (Figure 4a's 1 ms).
REFERENCE_INTERVAL_MS = 1.0

#: workload -> {rltl_1ms, rmpkc, row_hit} reference values, in the
#: paper's Figure 7a light-to-heavy order (see module docstring for
#: provenance and units).
REFERENCE_FINGERPRINTS: Dict[str, Dict[str, float]] = {
    # --- light (low RMPKC; Fig 7a left) -----------------------------
    "tpch6":      {"rltl_1ms": 0.742, "rmpkc": 4.5,   "row_hit": 0.585},
    "apache20":   {"rltl_1ms": 0.716, "rmpkc": 6.4,   "row_hit": 0.490},
    "hmmer":      {"rltl_1ms": 0.996, "rmpkc": 3.2,   "row_hit": 0.801},
    "tonto":      {"rltl_1ms": 0.769, "rmpkc": 5.8,   "row_hit": 0.590},
    "bzip2":      {"rltl_1ms": 0.754, "rmpkc": 15.4,  "row_hit": 0.052},
    "sjeng":      {"rltl_1ms": 0.505, "rmpkc": 17.7,  "row_hit": 0.005},
    "GemsFDTD":   {"rltl_1ms": 0.992, "rmpkc": 21.9,  "row_hit": 0.000},
    "sphinx3":    {"rltl_1ms": 0.753, "rmpkc": 22.9,  "row_hit": 0.051},
    # --- medium ------------------------------------------------------
    "tpch2":      {"rltl_1ms": 0.749, "rmpkc": 16.0,  "row_hit": 0.425},
    "astar":      {"rltl_1ms": 0.554, "rmpkc": 27.9,  "row_hit": 0.004},
    "mcf":        {"rltl_1ms": 0.389, "rmpkc": 52.7,  "row_hit": 0.001},
    "milc":       {"rltl_1ms": 0.984, "rmpkc": 31.9,  "row_hit": 0.000},
    "bwaves":     {"rltl_1ms": 0.984, "rmpkc": 38.6,  "row_hit": 0.000},
    "cactusADM":  {"rltl_1ms": 0.984, "rmpkc": 34.5,  "row_hit": 0.000},
    "omnetpp":    {"rltl_1ms": 0.541, "rmpkc": 58.3,  "row_hit": 0.002},
    "tpcc64":     {"rltl_1ms": 0.644, "rmpkc": 34.3,  "row_hit": 0.219},
    # --- heavy (high RMPKC; Fig 7a right) ---------------------------
    "lbm":        {"rltl_1ms": 0.969, "rmpkc": 67.0,  "row_hit": 0.000},
    "leslie3d":   {"rltl_1ms": 0.969, "rmpkc": 66.8,  "row_hit": 0.000},
    "libquantum": {"rltl_1ms": 0.875, "rmpkc": 111.9, "row_hit": 0.000},
    "soplex":     {"rltl_1ms": 0.775, "rmpkc": 95.3,  "row_hit": 0.050},
    "tpch17":     {"rltl_1ms": 0.770, "rmpkc": 71.6,  "row_hit": 0.290},
    "STREAMcopy": {"rltl_1ms": 0.875, "rmpkc": 141.0, "row_hit": 0.000},
}

#: Figure 4a's printed average 1 ms-RLTL (single-core, open-row).
PAPER_AVG_RLTL_1MS = 0.86


def fingerprint_delta(fp: WorkloadFingerprint,
                      ref: Mapping[str, float]) -> Dict[str, float]:
    """Signed deltas of a measured fingerprint against a reference.

    Returns the measured values, the references, the deltas
    (``d_rltl``/``d_row_hit`` absolute, ``rmpkc_ratio`` as
    measured/reference), and a ``status`` of "ok" or "drift" judged
    against the module tolerances.  A zero-reference RMPKC compares on
    the absolute value instead of the ratio.
    """
    rltl = fp.rltl(REFERENCE_INTERVAL_MS)
    rmpkc = fp.rmpkc
    row_hit = fp.row_hit_rate
    if ref["rmpkc"] > 0:
        ratio = rmpkc / ref["rmpkc"]
        rmpkc_ok = (1.0 / RMPKC_RATIO_TOLERANCE <= ratio
                    <= RMPKC_RATIO_TOLERANCE)
    else:
        ratio = float("inf") if rmpkc else 1.0
        rmpkc_ok = rmpkc == 0
    ok = (abs(rltl - ref["rltl_1ms"]) <= RLTL_TOLERANCE
          and abs(row_hit - ref["row_hit"]) <= ROW_HIT_TOLERANCE
          and rmpkc_ok)
    return {
        "rltl_1ms": rltl,
        "ref_rltl_1ms": ref["rltl_1ms"],
        "d_rltl": rltl - ref["rltl_1ms"],
        "rmpkc": rmpkc,
        "ref_rmpkc": ref["rmpkc"],
        "rmpkc_ratio": ratio,
        "row_hit": row_hit,
        "ref_row_hit": ref["row_hit"],
        "d_row_hit": row_hit - ref["row_hit"],
        "status": "ok" if ok else "drift",
    }
