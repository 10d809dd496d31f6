"""Known-bad: Protocol methods call module-level helpers that read the wall
clock or build an unseeded random.Random().  The helpers sit outside the
determinism scope, but their taint reaches each protocol step: DET007."""

import random
import time


def _stamp() -> float:
    return time.time()


def _label() -> str:
    return f"run-{_stamp()}"


class TimestampingProcess(ProtocolProcess):  # noqa: F821
    def step(self, tick: int) -> str:
        return _label()  # expect: DET007

    def clean_step(self, tick: int) -> int:
        # Known-good: pure arithmetic on the simulated tick.
        return tick + 1

    def draw_step(self, tick: int) -> int:
        return _fresh_rng().randrange(tick + 1)  # expect: DET007


def _fresh_rng() -> random.Random:
    # Seeded from OS entropy: every replay draws a different stream.
    return random.Random()
