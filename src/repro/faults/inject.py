"""The injection layer: wrap a TRN ladder in a composed set of faults.

A :class:`FaultInjector` owns a list of :class:`repro.faults.FaultModel`\\ s
and a virtual clock the serving engine advances (``tick``). Wrapping a
ladder replaces every rung with a :class:`FaultedRung` proxy whose
estimates, sampled service times and forwards are perturbed by the
currently active faults — the engine's code path is identical with and
without faults, which is the point: chaos is injected *under* the serving
stack, at the device boundary, not special-cased inside it.

Determinism: every fault's RNG is reseeded from
:func:`repro.device.spec.stable_seed` (scenario seed + fault index), and
the injector resets itself whenever a fresh engine starts, so one
``(ladder, config, trace, scenario)`` tuple always replays the same
failures at the same virtual times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.device.spec import stable_seed

from .models import FaultModel
from .resilience import RungFailureError

__all__ = ["FaultEvent", "FaultInjector", "FaultedRung"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault window opening or closing, in virtual time."""

    time_ms: float
    fault: str                  # FaultModel.describe()
    phase: str                  # "activate" or "deactivate"

    def as_dict(self) -> dict:
        return {"time_ms": self.time_ms, "fault": self.fault,
                "phase": self.phase}


class FaultInjector:
    """Compose fault models over a shared virtual clock.

    The engine calls :meth:`tick` as its loop advances; the wrapped rungs
    read the injector's clock when they are asked for estimates or
    samples. Multiplicative hooks compose as products (a storm during a
    thermal window multiplies both slowdowns); ``fails`` composes as
    *any*; queue capacity composes as the *minimum* factor.
    """

    def __init__(self, faults: Sequence[FaultModel], seed: int = 0):
        self.faults = list(faults)
        self.seed = int(seed)
        self.events: list[FaultEvent] = []
        self.now_ms = 0.0
        self._active = [False] * len(self.faults)
        self.reset()

    # -- lifecycle -----------------------------------------------------------
    def reset(self) -> None:
        """Rewind to t=0 with fresh per-fault RNGs (fresh-engine start)."""
        for i, fault in enumerate(self.faults):
            fault.reseed(stable_seed(type(fault).__name__, i, self.seed))
        self.now_ms = 0.0
        self.events = []
        self._active = [False] * len(self.faults)

    def tick(self, now_ms: float) -> list[FaultEvent]:
        """Advance the clock; returns fault windows that just opened/closed."""
        self.now_ms = now_ms
        fresh: list[FaultEvent] = []
        for i, fault in enumerate(self.faults):
            active = fault.active(now_ms)
            if active != self._active[i]:
                self._active[i] = active
                event = FaultEvent(
                    now_ms, fault.describe(),
                    "activate" if active else "deactivate")
                self.events.append(event)
                fresh.append(event)
        return fresh

    # -- composed perturbations ----------------------------------------------
    def service_factor(self, rung_name: str, batch_size: int) -> float:
        factor = 1.0
        for fault in self.faults:
            factor *= fault.service_factor(self.now_ms, rung_name, batch_size)
        return factor

    def estimate_factor(self, rung_name: str) -> float:
        factor = 1.0
        for fault in self.faults:
            factor *= fault.estimate_factor(self.now_ms, rung_name)
        return factor

    def fails(self, rung_name: str) -> bool:
        return any(f.fails(self.now_ms, rung_name) for f in self.faults)

    def capacity_factor(self) -> float:
        return min((f.capacity_factor(self.now_ms) for f in self.faults),
                   default=1.0)

    def effective_capacity(self, capacity: int) -> int:
        """Usable queue slots under the currently active saturation faults."""
        return max(1, int(capacity * self.capacity_factor()))

    # -- wrapping ------------------------------------------------------------
    def wrap(self, ladder):
        """A new ladder whose rungs route through this injector.

        The original ladder is untouched; the wrapped one is a fresh
        instance of the same ladder class over :class:`FaultedRung`
        proxies (which satisfy the full rung protocol, so sorting,
        reseeding and warm-up behave identically).

        Raises :class:`ValueError` on a ladder this injector already
        wraps: its faults would apply twice.
        """
        for rung in ladder.rungs:
            if isinstance(rung, FaultedRung) and rung._injector is self:
                raise ValueError(
                    f"rung {rung.name!r} is already wrapped by this "
                    "injector; pass the unwrapped ladder (Server and "
                    "Replica wrap it themselves)")
        return type(ladder)([FaultedRung(r, self) for r in ladder.rungs])

    # -- read-out ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Injector state as a plain dict (mountable in a registry)."""
        return {"seed": self.seed, "now_ms": self.now_ms,
                "faults": [f.describe() for f in self.faults],
                "active": [f.describe() for f, a
                           in zip(self.faults, self._active) if a],
                "events": [e.as_dict() for e in self.events]}

    def report(self) -> str:
        lines = [f"faults ({len(self.faults)}), seed {self.seed}:"]
        for fault, active in zip(self.faults, self._active):
            marker = "*" if active else " "
            lines.append(f" {marker} {fault.describe()}")
        for e in self.events:
            lines.append(f"  t={e.time_ms:9.2f} ms  {e.phase:10s} {e.fault}")
        return "\n".join(lines)


class FaultedRung:
    """A TRN rung proxy that routes timing through a fault injector.

    Satisfies the rung protocol the serving stack uses (``name``,
    ``accuracy``, ``sampler``, ``estimate_ms``, ``sample_service_ms``,
    ``forward``, ``reseed``, ``recalibrate``) and perturbs each call with
    the injector's currently active faults.
    """

    def __init__(self, rung, injector: FaultInjector):
        self._rung = rung
        self._injector = injector

    # -- delegated attributes ------------------------------------------------
    @property
    def name(self) -> str:
        return self._rung.name

    @property
    def network(self):
        return self._rung.network

    @property
    def spec(self):
        return self._rung.spec

    @property
    def accuracy(self) -> float:
        return self._rung.accuracy

    @property
    def builder(self) -> str:
        return getattr(self._rung, "builder", "")

    @property
    def sampler(self):
        return self._rung.sampler

    @property
    def estimate_scale(self) -> float:
        return self._rung.estimate_scale

    def reseed(self, rng) -> None:
        self._rung.reseed(rng)

    def recalibrate(self, scale: float) -> float:
        """Rewrite the wrapped rung's latency belief (shared with the
        unwrapped ladder — there is one belief per rung, not per proxy)."""
        return self._rung.recalibrate(scale)

    def estimate_table(self) -> dict:
        return self._rung.estimate_table()

    # -- perturbed timing ----------------------------------------------------
    def estimate_ms(self, batch_size: int = 1) -> float:
        return (self._rung.estimate_ms(batch_size)
                * self._injector.estimate_factor(self.name))

    def sample_service_ms(self, batch_size: int = 1) -> float:
        if self._injector.fails(self.name):
            raise RungFailureError(self.name)
        return (self._rung.sample_service_ms(batch_size)
                * self._injector.service_factor(self.name, batch_size))

    def forward(self, samples):
        if self._injector.fails(self.name):
            raise RungFailureError(self.name)
        return self._rung.forward(samples)

    def forward_one(self, x):
        if self._injector.fails(self.name):
            raise RungFailureError(self.name)
        return self._rung.forward_one(x)

    def __repr__(self) -> str:
        return f"FaultedRung({self._rung!r})"
