"""Small shared helpers: named RNG streams and atomic file writes."""

import hashlib
import os
import tempfile

import numpy as np


def stream_rng(seed, *names):
    """Return a Generator for the sub-stream identified by ``names``.

    Distinct name tuples give statistically independent streams derived
    from one user-facing seed. Names are hashed, so adding a new stream
    never shifts an existing one.
    """
    key = [int(seed)]
    for name in names:
        digest = hashlib.blake2s(str(name).encode("utf-8"), digest_size=8).digest()
        key.append(int.from_bytes(digest, "little"))
    return np.random.default_rng(np.random.SeedSequence(key))


def _atomic_write(path, data, mode):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file and rename."""
    _atomic_write(path, text, "w")


def write_bytes_atomic(path, blob):
    """Write ``blob`` to ``path`` via a temp file and rename."""
    _atomic_write(path, blob, "wb")


def child_seed(seed, *names):
    """A derived integer seed for handing to APIs that take one."""
    return int(stream_rng(seed, *names).integers(0, 2**63))
