"""Experiment harness: one figure-table entry per paper table/figure.

Every artifact of the paper's evaluation is an entry of
:data:`repro.harness.experiments.FIGURES` (a sweep plus a reducer) and
is regenerated with :func:`repro.harness.experiments.run`
(programmatic), the ``benchmarks/`` pytest-benchmark suite, or the
``chargecache-harness`` CLI — all three read the same table.
"""
