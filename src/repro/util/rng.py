"""Deterministic, namespaced random streams.

Every stochastic decision in the simulation (population layout, key
generation, scan ordering) draws from a stream derived from a
single study seed plus a textual namespace.  Two properties matter:

* reproducibility — the same seed yields byte-identical populations and
  scan results, which the experiment benchmarks rely on;
* isolation — adding draws in one namespace never perturbs another, so
  the population stays stable when unrelated code changes.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(seed: int, namespace: str) -> int:
    material = f"{seed}:{namespace}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "big")


class DeterministicRng(random.Random):
    """A :class:`random.Random` keyed by ``(seed, namespace)``.

    Sub-streams are created with :meth:`substream`, giving a tree of
    independent generators rooted at the study seed.
    """

    def __init__(self, seed: int, namespace: str = "root"):
        self._base_seed = seed
        self._namespace = namespace
        super().__init__(_derive_seed(seed, namespace))

    @property
    def namespace(self) -> str:
        return self._namespace

    def substream(self, label: str) -> "DeterministicRng":
        """Return an independent generator for ``label`` under this one."""
        return DeterministicRng(self._base_seed, f"{self._namespace}/{label}")

    def token_bytes(self, count: int) -> bytes:
        """Deterministic replacement for :func:`secrets.token_bytes`."""
        return self.getrandbits(count * 8).to_bytes(count, "big") if count else b""

    def shuffled(self, items) -> list:
        """Return a shuffled copy, leaving the input untouched."""
        out = list(items)
        self.shuffle(out)
        return out
