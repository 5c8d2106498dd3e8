"""Benchmark workloads, generated from the benchmark's seed.

Each workload is a sweep plan: configs x rounds x attempts on one channel,
the worker count its sweep runs with, and which command is timed.  The
seed picks everything that does not change the amount of work (config
names, file order, bitrates, tx power, payload length, tx mode, plan seed),
so runs at different seeds cost the same and their timings are comparable.
The (crc, retransmits) shapes are those of the four lab configs at every
seed, because the number of copies per attempt sets the kernel's work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Heavy loss, as in the lab protocol; every copy count shows up in the output.
CHANNEL = {"p_loss": 0.2655, "p_corrupt": 0.0204}

BITRATES = ("2M-ble", "2M", "1M")

# (crc, retransmits) of the four lab-protocol configs: CRC off/8/16 and
# retransmits 0-3, 2.5 copies per attempt on average.
LAB_SHAPES = (("off", 2), ("8", 3), ("16", 1), ("16", 0))


@dataclass(frozen=True)
class Config:
    name: str
    crc: str
    retransmits: int
    bitrate: str
    protocol: str
    txmode: str
    power: int
    payload: str
    payload_len: int

    @property
    def copies(self) -> int:
        return self.retransmits + 1

    @property
    def crc_on(self) -> bool:
        return self.crc != "off"


@dataclass(frozen=True)
class Workload:
    """One generated workload.

    `measured` is the command the benchmark times: "sweep" runs the plan,
    "report" re-reads the results CSV of an untimed set-up sweep.
    """

    name: str
    seed: int
    plan_seed: int
    configs: tuple[Config, ...]
    rounds: int
    attempts: int
    workers: int
    measured: str

    @property
    def rows(self) -> int:
        return len(self.configs) * self.rounds * self.attempts

    def experiment_text(self) -> str:
        lines = [
            f"[sweep] seed={self.plan_seed} rounds={self.rounds} "
            f"attempts={self.attempts} shuffle=true",
        ]
        for c in self.configs:
            lines.append(
                f"[config {c.name}] crc={c.crc} protocol={c.protocol} bitrate={c.bitrate} "
                f"txmode={c.txmode} power={c.power} payload={c.payload} "
                f"payload_len={c.payload_len} retransmits={c.retransmits} retransmit_delay_us=435"
            )
        lines.append(f"[channel] p_loss={CHANNEL['p_loss']} p_corrupt={CHANNEL['p_corrupt']}")
        return "\n".join(lines) + "\n"


def _configs(rng: random.Random) -> tuple[Config, ...]:
    # every bitrate appears; the rest of the list is a random choice
    bitrates = list(BITRATES) * (len(LAB_SHAPES) // len(BITRATES))
    bitrates += [rng.choice(BITRATES) for _ in range(len(LAB_SHAPES) - len(bitrates))]
    rng.shuffle(bitrates)
    configs = [
        Config(
            name=f"lab{k}-{rng.getrandbits(16):04x}",
            crc=crc,
            retransmits=retransmits,
            bitrate=bitrate,
            protocol=rng.choice(("dynamic", "static")),
            txmode=rng.choice(("auto", "manual", "manual-start")),
            power=rng.randint(-20, 4),
            payload=rng.choice(("standard", "optimized")),
            payload_len=rng.randint(1, 8),
        )
        for k, ((crc, retransmits), bitrate) in enumerate(zip(LAB_SHAPES, bitrates))
    ]
    rng.shuffle(configs)
    return tuple(configs)


# name -> (rounds, attempts per round, sweep workers, timed command)
SHAPES = {
    # ~40k attempts in long series: the attempt kernel dominates.
    "lab-sweep": (5, 2000, 1, "sweep"),
    # ~200k rows of the lab configs, re-read: CSV parsing and summaries
    # dominate and the kernel never runs.
    "report-replay": (5, 10000, 2, "report"),
}


def make(name: str, seed: int, rounds: int | None = None, attempts: int | None = None) -> Workload:
    """The workload `name` at `seed`; `rounds`/`attempts` shrink it for tests."""
    default_rounds, default_attempts, workers, measured = SHAPES[name]
    # the lab configs of report-replay are those of lab-sweep at the same seed
    rng = random.Random(f"lab-sweep:{seed}")
    return Workload(
        name=name,
        seed=seed,
        plan_seed=rng.getrandbits(63),
        configs=_configs(rng),
        rounds=rounds or default_rounds,
        attempts=attempts or default_attempts,
        workers=workers,
        measured=measured,
    )
