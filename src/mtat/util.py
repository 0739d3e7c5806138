"""Small shared helpers: named RNG streams, atomic writes, CSV text, JSON type checks,
cache-line-aligned arrays."""

import csv
import hashlib
import io
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError


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


# Bytes: one cache line, one AVX-512 vector. glibc starts a large block
# 16 bytes past a page boundary, and a vector loop over such rows splits
# every load across two lines: on an AVX-512 Xeon, redundancy_score's
# N=256 heads took 39 ms with its buffers there against 29 ms aligned.
_ALIGN = 64


def aligned_empty(size):
    """An uninitialised 1-D float64 array of ``size`` elements that starts
    on a 64-byte boundary. It views a padded buffer through a memoryview,
    not an array, so numpy makes it the ``.base`` of every view of it."""
    raw = np.empty(8 * size + _ALIGN, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % _ALIGN
    return np.frombuffer(memoryview(raw)[start : start + 8 * size])


def _atomic_write(path, data, mode):
    """Write ``data`` to a temp file beside ``path`` and rename it over
    ``path``. A failure leaves no temp file and raises an OSError whose
    filename is ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file and rename."""
    _atomic_write(path, text, "w")


def write_bytes_atomic(path, blob):
    """Write ``blob`` to ``path`` via a temp file and rename."""
    _atomic_write(path, blob, "wb")


def csv_text(header, rows):
    """The CSV text of ``header``, then ``rows``: a float, numpy's too, as
    ``repr(float(value))``, None as an empty field, minimal quoting (of a
    comma, a quote or a newline) and a newline after every line."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    return text.getvalue()


def child_seed(seed, *names):
    """A derived integer seed for handing to APIs that take one."""
    return int(stream_rng(seed, *names).integers(0, 2**63))


_JSON_TYPES = (
    (bool, "a boolean"), (int, "an integer"), (float, "a number"),
    (str, "a string"), (list, "a list"), (dict, "an object"),
)


def json_type(value):
    """The name of a decoded JSON value's type, or None for null."""
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), None)


def check_json(shape, value, name):
    """Raise ConfigError unless ``value`` has ``shape``'s JSON type. An
    integer passes for a number, NaN and infinities for nothing; list items
    follow the shape's first item, objects hold only the shape's keys, and
    a null shape passes anything."""
    want, got = json_type(shape), json_type(value)
    if want is None:
        return
    if got != want and (want, got) != ("a number", "an integer"):
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    if got == "a number" and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if want == "a list":
        for i, item in enumerate(value):
            check_json(shape[0], item, f"{name}[{i}]")
    elif want == "an object":
        for key, item in value.items():
            if key not in shape:
                raise ConfigError(f"unknown {name}.{key}")
            check_json(shape[key], item, f"{name}.{key}")
