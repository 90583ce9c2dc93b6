"""Small shared helpers: stable hashing, seed derivation, tokens, text normalization."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

_MASK64 = (1 << 64) - 1


def hash64(data: str, key: int = 0) -> int:
    """Stable 64-bit hash of a string, independent of PYTHONHASHSEED."""
    keyed = hashlib.blake2b(
        data.encode("utf-8"),
        digest_size=8,
        key=(key & _MASK64).to_bytes(8, "little"),
    )
    return int.from_bytes(keyed.digest(), "little")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a named sub-seed from a root seed.

    Every seeded component (encoder, k-means, sampling) gets its own
    stream so reordering one consumer cannot perturb another.
    """
    return hash64(name, key=root_seed)


# \w minus underscore: Unicode alphanumerics only.
_TOKEN_RE = re.compile(r"[^\W_]+", flags=re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs, dropping empties: the
    encoder's one token rule."""
    return _TOKEN_RE.findall(text.lower())


_NON_WORD = re.compile(r"[^\w\s]|_", flags=re.UNICODE)


def normalize_answer_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(_NON_WORD.sub(" ", text.lower()).split())


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, parsed_object) for each non-empty line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc


def check_writable(path: str | Path) -> None:
    """Raise, naming `path`, the OSError that writing it would raise when it is a
    directory (EISDIR) or lies in no directory (ENOENT, or ENOTDIR under a file)."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), str(path))


@contextmanager
def replacing(path: str | Path, mode: str = "w", **kwargs) -> Iterator:
    """`path` written via a temporary file beside it: whole, or unchanged if the block raises.
    A `path` that `check_writable` refuses is refused before the block runs."""
    check_writable(path)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the output asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with replacing(path, encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)
