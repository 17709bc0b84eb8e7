"""Host-time estimators that survive a noisy shared machine.

All host time is CPU time (``time.process_time``): the runner is one
thread of one process, and on this box CPU time tracks wall time, so
the noise is neighbour interference, not scheduling.  Interference comes
in bursts, so a whole round is rarely clean but every *slice* of it is
clean in some round: the estimate of a phase is the sum over its slices
of the fastest time that slice took in any round.
"""

from __future__ import annotations

import math
from time import process_time
from typing import Sequence


def ss_min(rounds: Sequence[Sequence[float]]) -> float:
    """Sum over slices of the minimum of that slice across rounds.

    ``rounds[r][i]`` is the CPU time of slice ``i`` in round ``r``; the
    rounds replay the same deterministic simulation, so they must have
    the same slices.
    """
    if not rounds:
        raise ValueError("no rounds")
    length = len(rounds[0])
    if any(len(times) != length for times in rounds):
        raise ValueError("rounds disagree on the number of slices: "
                         f"{sorted({len(times) for times in rounds})}")
    return sum(map(min, zip(*rounds)))


def percentile(values: Sequence[float], q: float,
               half_band: float = 0.5) -> float:
    """The ``q``-th percentile as a band mean: the mean of the order
    statistics whose rank lies within ``half_band`` percent of ``q``.

    Simulated latencies are sums of a few fixed costs, so their
    distribution is a staircase; a nearest-rank percentile sitting at
    the edge of a step jumps a whole step between two seeds, while the
    band mean moves in proportion to the mass that crossed.  With a
    band narrower than one rank it is the nearest-rank percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    low = max(1, math.ceil((q - half_band) / 100.0 * count))
    high = max(low, min(count,
                        math.ceil((q + half_band) / 100.0 * count)))
    band = ordered[low - 1:high]
    return sum(band) / len(band)


#: what ``calibration_chunk`` takes on this machine when it is quiet
REFERENCE_CHUNK_MS = 3.2


def calibration_chunk() -> float:
    """CPU milliseconds of a fixed piece of pure Python that allocates
    and walks about 20 000 tuples and dict entries (about 3 ms).

    Besides short bursts this box has spells, half a minute to minutes
    long, in which all code runs 20-60 % slower; every round of a run
    can sit inside one, so no choice among rounds removes them.  They
    hit memory traffic harder than arithmetic (a bare counting loop
    slowed 20-35 % where the workload slowed 50-65 % and this chunk
    80 %), so the reference allocates like the program does.
    """
    start = process_time()
    table = {}
    rows = []
    for number in range(20_000):
        key = (number * 2654435761) & 0xFFFFF
        row = (key, number, key & 0xFFFF)
        table[key] = row
        rows.append(row)
    total = 0
    for row in rows:
        total += table[row[0]][1]
    return (process_time() - start) * 1e3


def machine_speed(chunks_ms: Sequence[float]) -> float:
    """The run's calibration reading: the 10th percentile of its chunks
    (the minimum of a few hundred allocating chunks is itself noisy)."""
    return sorted(chunks_ms)[len(chunks_ms) // 10]


def machine_factor(chunks_ms: Sequence[float]) -> float:
    """What a run's CPU times are multiplied by to read as on the
    reference machine: measured while the chunks took 20 % longer, they
    count 1/1.2."""
    return REFERENCE_CHUNK_MS / machine_speed(chunks_ms)
