"""Statistics: the RLTL and row-reuse probes and evaluation metrics."""
