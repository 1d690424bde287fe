"""Seeded, alarm-shaped entity names for the benchmark workloads.

Every name is built from the alarm and node names of the same seeded
telecom world the checkpoint is trained on, so its words are in the
model's vocabulary: the encoder does real work on it, and two names
never tokenize alike (numbers would all map to ``[UNK]``).  The families
never collide:

* catalog names  ``"<node> <alarm> after <alarm>"``  — stored, indexed;
* cold names     ``"<node> <alarm> after <alarm> then <alarm>"`` — never
  stored, each used once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

CATALOG_SIZE = 20_000


@functools.lru_cache(maxsize=4)
def _vocabulary(seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    from repro.experiments import PipelineConfig
    from repro.world import TelecomWorld

    config = PipelineConfig(seed=seed)
    world = TelecomWorld.generate(
        seed=seed, alarms_per_theme=config.alarms_per_theme,
        kpis_per_theme=config.kpis_per_theme,
        topology_nodes=config.topology_nodes)
    alarms = tuple(sorted(a.name for a in world.ontology.alarms))
    nodes = tuple(sorted(world.topology.nodes))
    return alarms, nodes


def _digits(index: int, radices: list[int]) -> list[int]:
    out = []
    for radix in radices:
        index, digit = divmod(index, radix)
        out.append(digit)
    return out


def catalog_names(seed: int, size: int = CATALOG_SIZE) -> list[str]:
    """``size`` distinct names, in a seeded order."""
    alarms, nodes = _vocabulary(seed)
    space = len(nodes) * len(alarms) ** 2
    picks = np.random.default_rng(seed + 1).choice(space, size=size,
                                                   replace=False)
    names = []
    for pick in picks:
        n, a, b = _digits(int(pick), [len(nodes), len(alarms), len(alarms)])
        names.append(f"{nodes[n]} {alarms[a]} after {alarms[b]}")
    return names


class ColdNames:
    """A stream of distinct names that no store or cache has seen.

    Walks the name space in a seeded affine order ``(a * i + b) mod N``
    with ``a`` coprime to ``N``, so no name repeats within a run.
    """

    def __init__(self, seed: int):
        self._alarms, self._nodes = _vocabulary(seed)
        self._radices = [len(self._nodes)] + [len(self._alarms)] * 3
        self._space = math.prod(self._radices)
        rng = np.random.default_rng(seed + 3)
        self._step = int(rng.integers(1, self._space))
        while math.gcd(self._step, self._space) != 1:
            self._step += 1
        self._offset = int(rng.integers(self._space))
        self._count = 0

    def take(self, count: int) -> list[str]:
        out = []
        for _ in range(count):
            index = (self._step * self._count + self._offset) % self._space
            n, a, b, c = _digits(index, self._radices)
            out.append(f"{self._nodes[n]} {self._alarms[a]} after "
                       f"{self._alarms[b]} then {self._alarms[c]}")
            self._count += 1
        return out
