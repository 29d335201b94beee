"""Id compression: a batch's sender ids as an integer partition over the
server domains.  Its wire layout, `PARTITION`, is in `wire`."""

from __future__ import annotations


def compress_ids(ids) -> dict:
    """Sorted duplicate-free (domain, index) sequence -> {domain: {index}}."""
    out: dict = {}
    for domain, index in ids:
        out.setdefault(domain, set()).add(index)
    return out


def expand_ids(compressed: dict) -> list:
    ids = [(domain, index)
           for domain, indices in compressed.items()
           for index in indices]
    ids.sort()
    return ids
