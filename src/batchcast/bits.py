"""The error every malformed wire input ends in.

The wire format itself, varints included, is defined and compiled in
`wire`.
"""

from __future__ import annotations


class DecodeError(Exception):
    """Malformed bit stream: the decoder cannot make progress."""


EXHAUSTED = "bit stream exhausted"
