"""The library's sanctioned randomness root.

Reproducibility is a correctness property here: cost comparisons across
algorithms (Eq. 1) and the chaos-replay guarantees of docs/FAULTS.md both
require that every run can be replayed bit-for-bit. The discipline is

* randomness is always *injected* -- components accept either a seed or a
  caller-owned :class:`random.Random` and never reach for the shared
  module-level generator;
* every generator is constructed through :func:`derive_rng`, the single
  audited chokepoint, so the static-analysis pass (docs/LINTS.md) can
  flag any stray ``random.Random(...)`` construction (rule RL102) or
  global ``random.*`` call (rule RL002) elsewhere in the library.
"""

from __future__ import annotations

import random
from typing import Union

SeedLike = Union[int, random.Random, None]

_DEFAULT_SEED = 0


def derive_rng(seed: SeedLike = None) -> random.Random:
    """Return a deterministic generator for ``seed``.

    * an ``int`` seeds a fresh, private :class:`random.Random`;
    * an existing :class:`random.Random` is returned as-is (caller-owned
      injection: the caller controls -- and can replay -- the stream);
    * ``None`` falls back to the library default seed, never to OS entropy.

    This function is the only place in the library where a generator
    may be constructed (RL102).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return random.Random(seed)
