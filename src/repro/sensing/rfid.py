"""RFID reader simulation.

Zone readers detect tagged items present in their zone each polling
cycle.  Real RFID streams suffer missed reads, ghost/cross reads and
duplicates [8][14]; the reader couples with
:class:`~repro.sensing.noise.ZoneNoiseModel` for cross reads and adds
independent miss and duplicate processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from .mobility import TruePosition
from .noise import ZoneNoiseModel

__all__ = ["RFIDRead", "ZoneReaderArray"]


@dataclass(frozen=True)
class RFIDRead:
    """One read event: a tag reported at a zone at a time."""

    tag: str
    zone: str
    timestamp: float
    corrupted: bool


class ZoneReaderArray:
    """Readers covering the zones of a facility.

    Converts a stream of ground-truth item positions into read events:

    * each true sample is read with probability ``1 - miss_rate``;
    * a read passes through the zone noise model, which cross-reads it
      into a wrong zone with the controlled error rate;
    * after a successful read, an extra duplicate read (same zone,
      slightly later) occurs with probability ``duplicate_rate``;
      duplicates of expected reads are expected.
    """

    def __init__(
        self,
        noise: ZoneNoiseModel,
        rng: random.Random,
        *,
        miss_rate: float = 0.05,
        duplicate_rate: float = 0.05,
        duplicate_delay: float = 0.2,
    ) -> None:
        for name, rate in (("miss_rate", miss_rate), ("duplicate_rate", duplicate_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.noise = noise
        self.rng = rng
        self.miss_rate = miss_rate
        self.duplicate_rate = duplicate_rate
        self.duplicate_delay = duplicate_delay

    def read_stream(self, truth: Sequence[TruePosition]) -> List[RFIDRead]:
        """Read events for a ground-truth item trace, in time order."""
        reads: List[RFIDRead] = []
        for sample in truth:
            if sample.room is None:
                continue
            if self.rng.random() < self.miss_rate:
                continue
            reading = self.noise.observe(sample.room)
            read = RFIDRead(
                tag=sample.subject,
                zone=str(reading.value),
                timestamp=sample.timestamp,
                corrupted=reading.corrupted,
            )
            reads.append(read)
            if self.rng.random() < self.duplicate_rate:
                reads.append(
                    RFIDRead(
                        tag=read.tag,
                        zone=read.zone,
                        timestamp=read.timestamp + self.duplicate_delay,
                        corrupted=read.corrupted,
                    )
                )
        reads.sort(key=lambda r: (r.timestamp, r.tag))
        return reads
