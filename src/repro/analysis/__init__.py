"""AST-based determinism linter for the repro tree (``repro lint``).

One rule, ``determinism``, guards the invariant no unit test can check
globally: every module under the run cache's code fingerprint computes
results purely from (spec, sources).  The other invariants of the
tree are checked at runtime where they are defined.  See DESIGN.md
section 9.
"""
