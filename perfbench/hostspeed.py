"""The host's momentary speed, from a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed is not
fixed: the same pure-Python loop takes from 1x to 1.7x as long from one
stretch of seconds to the next, and a serial join's operation time
follows it.  Timed work is therefore bracketed by runs of one fixed
reference computation, and its time is scaled to a host on which that
computation takes :data:`REFERENCE_S`::

    scaled = elapsed * REFERENCE_S / mean(reference before, reference after)

The reference is a small similarity join in plain Python over fixed
seeded sparse vectors -- an inverted index, dict accumulation of
partial products, a sort and JSON encoding of the output -- so it
slows down with the host much as the program's work does.  It is part
of the benchmark, not of the program: a slower program still reads
slower.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Tuple

__all__ = ["REFERENCE_S", "reference_seconds", "Bracket"]

#: About what one reference computation takes on a 2-core x86 VM
#: (Intel Xeon, Python 3.11); it only fixes the unit of scaled times.
REFERENCE_S = 0.015


def _vectors(count: int, terms: int, prefix: str, rng: random.Random
             ) -> Dict[str, Dict[str, float]]:
    return {
        f"{prefix}{i}": {
            f"w{rng.randrange(600)}": rng.random() for _ in range(terms)
        }
        for i in range(count)
    }


_RNG = random.Random(7)
_ITEMS = _vectors(170, 12, "d", _RNG)
_CONSUMERS = _vectors(35, 25, "u", _RNG)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference computation."""
    started = time.perf_counter()
    index: Dict[str, List[Tuple[str, float]]] = {}
    for item, vector in _ITEMS.items():
        for term, weight in vector.items():
            index.setdefault(term, []).append((item, weight))
    scores: Dict[Tuple[str, str], float] = {}
    for consumer, vector in _CONSUMERS.items():
        for term, weight in vector.items():
            for item, other in index.get(term, ()):
                pair = (item, consumer)
                scores[pair] = scores.get(pair, 0.0) + weight * other
    encoded = 0
    for (item, consumer), score in sorted(scores.items()):
        encoded += len(json.dumps([item, consumer, score]))
    return time.perf_counter() - started


class Bracket:
    """Scales consecutive timings by the readings around each one.

    Each reading closes one timing and opens the next, so ``n``
    timings cost ``n + 1`` readings.
    """

    def __init__(self) -> None:
        self.before = reference_seconds()

    def scale(self, elapsed: float) -> float:
        """``elapsed`` as it would read at reference speed."""
        after = reference_seconds()
        factor = REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return elapsed * factor
