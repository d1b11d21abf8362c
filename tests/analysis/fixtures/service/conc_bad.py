"""Service-concurrency fixture (path-scoped: lives under service/).

Each marked line triggers (or avoids) one exact finding asserted by
tests/analysis/test_service_concurrency.py.
"""

import os


class BadStore:
    def publish_unsynced(self, tmp: str, final: str) -> None:
        with open(final + ".tmp", "w") as fh:
            fh.write("x")
        os.rename(tmp, final)  # no fsync before rename

    def publish_synced(self, tmp: str, final: str) -> None:
        fd = os.open(tmp, os.O_WRONLY)
        os.fsync(fd)
        os.close(fd)
        os.rename(tmp, final)  # fine: fsync earlier in function

    def label(self, text: str) -> str:
        return text.replace("-", "_")  # str.replace is not a rename
