"""Two names kept for the benchmark tracer; nothing calls them.

``System.run_batch`` runs every variant in full off one trace tape and
has no decision replay.  ``perfbench/tracer.py`` still wraps these two
functions by name when it installs (its ``core.replay`` layer), so they
stay until that tracer drops the layer.
"""


def replay_decisions_match(logs, mechanisms) -> bool:
    """Never called; always False."""
    return False


def fork_for_replay(prototype, channels):
    """Never called; always None."""
    return None
