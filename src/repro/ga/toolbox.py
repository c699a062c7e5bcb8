"""A DEAP-style toolbox: a registry of partially applied operators.

The paper builds its pipeline on DEAP, whose central idiom is
``toolbox.register("mutate", mutFlipBit, indpb=0.05)`` followed by
``toolbox.mutate(ind)``.  :class:`Toolbox` reproduces that surface so the
tuning pipeline reads like the original, and so users can swap operators
without touching the engine.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

__all__ = ["Toolbox"]


class Toolbox:
    """Named registry of callables with baked-in default arguments.

    The engine evaluates through one entry,
    ``evaluate_batch(individuals) -> sequence[float]``: each generation's
    unevaluated individuals are dispatched as a single call, in
    population order, so the evaluator can share work across the
    generation (trace reuse, duplicate genomes).  It must return one
    fitness per input individual, aligned with the input order.

    One optional entry is consulted when present:
    ``repair(individual) -> Individual``, a deterministic projection
    applied to every individual the engine breeds (initial population
    and post-variation offspring), so crossover/mutation can never emit
    an invalid genome.  It must be idempotent, consume no randomness,
    and return the input object unchanged when it is already valid.
    """

    _REQUIRED = ("generate", "evaluate_batch", "mate", "mutate", "select")

    def __init__(self) -> None:
        self._registry: dict[str, Callable[..., Any]] = {}

    def register(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Register ``fn`` under ``name`` with ``args``/``kwargs``
        pre-applied (``functools.partial`` semantics)."""
        if not callable(fn):
            raise TypeError(f"{name!r} must be registered with a callable")
        if name.startswith("_") or name in ("register", "validate"):
            raise ValueError(f"illegal toolbox entry name {name!r}")
        partial = functools.partial(fn, *args, **kwargs) if (args or kwargs) else fn
        self._registry[name] = partial

    def __contains__(self, name: str) -> bool:
        return name in self._registry

    def __getattr__(self, name: str) -> Callable[..., Any]:
        try:
            return self._registry[name]
        except KeyError:
            raise AttributeError(f"no toolbox entry named {name!r}") from None

    def validate(self) -> None:
        """Check that the operators the engine calls are all present."""
        missing = [n for n in self._REQUIRED if n not in self._registry]
        if missing:
            raise ValueError(f"toolbox is missing required entries: {missing}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Toolbox({sorted(self._registry)})"
