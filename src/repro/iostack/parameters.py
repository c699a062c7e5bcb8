"""Parameter definitions for the simulated HPC I/O stack.

Two distinct things live here:

* :data:`TUNED_SPACE` -- the 12 parameters across HDF5, MPI-IO and Lustre
  that the paper tunes (sieve_buf_size, chunk_cache, alignment,
  meta_block_size, colmeta_ops, mdc_conf, coll_metadata_write,
  striping_factor, striping_unit, cb_nodes, cb_buffer_size, plus the
  collective-I/O toggle the paper's HDF5/MPI-IO coordination example
  implies).  With the candidate value sets below the full space has
  ~2.4 billion permutations, matching the paper's "over 2.18 billion".

* :data:`LIBRARY_CATALOG` -- per-library parameter *counts* used only to
  regenerate Figure 1 (search-space growth across stack compositions),
  using the paper's lower bound of two values per discrete parameter and
  five per continuous parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .units import KiB, MiB, GiB

__all__ = [
    "Parameter",
    "ParameterSpace",
    "LibraryCatalog",
    "TUNED_SPACE",
    "LIBRARY_CATALOG",
    "stack_permutations",
    "ConstraintContext",
    "ConstraintViolation",
    "ConstraintViolationError",
    "UpperBoundConstraint",
    "DivisibilityConstraint",
    "ConstraintRegistry",
    "default_constraints",
]


@dataclass(frozen=True)
class Parameter:
    """One tunable knob of the I/O stack.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"striping_factor"``.
    layer:
        Which stack layer consumes it: ``"hdf5"``, ``"mpiio"`` or
        ``"lustre"``.
    values:
        The ordered candidate values explored during tuning.  Ordering
        matters: the genome encodes a parameter as its index into this
        tuple, and mutation moves to nearby indices for ordinal
        parameters.
    default:
        The untuned (library default) value; must be a member of
        ``values``.
    kind:
        ``"ordinal"`` (sizes/counts with a natural order), ``"boolean"``
        or ``"categorical"``.
    description:
        Human-readable summary for reports.
    """

    name: str
    layer: str
    values: tuple[Any, ...]
    default: Any
    kind: str = "ordinal"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no candidate values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")
        if self.default not in self.values:
            raise ValueError(
                f"default {self.default!r} of parameter {self.name!r} is not a "
                f"candidate value"
            )
        if self.kind not in ("ordinal", "boolean", "categorical"):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if self.layer not in ("hdf5", "mpiio", "lustre"):
            raise ValueError(f"unknown layer {self.layer!r}")

    @property
    def cardinality(self) -> int:
        """Number of candidate values."""
        return len(self.values)

    @property
    def default_index(self) -> int:
        """Index of the default value in :attr:`values`."""
        return self.values.index(self.default)

    def index_of(self, value: Any) -> int:
        """Index of ``value`` in :attr:`values` (raises ``ValueError`` if
        the value is not a candidate)."""
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not a candidate value of parameter {self.name!r}"
            ) from None

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniformly random candidate value."""
        return self.values[int(rng.integers(self.cardinality))]



class ParameterSpace:
    """An ordered, immutable collection of :class:`Parameter` objects.

    Provides genome encoding (value <-> index vectors), permutation
    counting, uniform sampling, and subspace selection -- everything the
    GA and the RL subset picker need.
    """

    def __init__(self, parameters: Sequence[Parameter]):
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in space")
        self._params: tuple[Parameter, ...] = tuple(parameters)
        self._names: tuple[str, ...] = tuple(names)
        self._by_name: dict[str, Parameter] = {p.name: p for p in self._params}

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, key: str | int) -> Parameter:
        if isinstance(key, int):
            return self._params[key]
        return self._by_name[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParameterSpace):
            return NotImplemented
        return self._params == other._params

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParameterSpace({[p.name for p in self._params]})"

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names in genome order."""
        return self._names

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Candidate-value counts in genome order."""
        return tuple(p.cardinality for p in self._params)

    def index_of_name(self, name: str) -> int:
        """Genome position of the parameter called ``name``."""
        for i, p in enumerate(self._params):
            if p.name == name:
                return i
        raise KeyError(name)

    # -- search-space size ---------------------------------------------------

    def permutations(self) -> int:
        """Exact number of distinct configurations in this space."""
        return math.prod(p.cardinality for p in self._params)

    # -- configuration construction -------------------------------------------

    def default_values(self) -> dict[str, Any]:
        """Mapping of every parameter to its library-default value."""
        return {p.name: p.default for p in self._params}

    def random_values(self, rng: np.random.Generator) -> dict[str, Any]:
        """Mapping of every parameter to a uniformly random candidate."""
        return {p.name: p.sample(rng) for p in self._params}

    # -- genome encoding -------------------------------------------------------

    def encode(self, values: Mapping[str, Any]) -> np.ndarray:
        """Encode a name->value mapping as an int index vector in genome
        order.  Missing parameters take their default index."""
        out = np.empty(len(self._params), dtype=np.int64)
        for i, p in enumerate(self._params):
            out[i] = p.index_of(values[p.name]) if p.name in values else p.default_index
        return out

    def decode(self, indices: Sequence[int]) -> dict[str, Any]:
        """Inverse of :meth:`encode`."""
        if len(indices) != len(self._params):
            raise ValueError(
                f"genome length {len(indices)} != space size {len(self._params)}"
            )
        return {p.name: p.values[int(i)] for p, i in zip(self._params, indices)}

    def normalized(self, indices: Sequence[int]) -> np.ndarray:
        """Map an index vector to [0, 1]^n (index / (cardinality-1)); used
        as NN features.  Parameters with a single value map to 0."""
        out = np.empty(len(self._params), dtype=np.float64)
        for j, (p, i) in enumerate(zip(self._params, indices)):
            out[j] = 0.0 if p.cardinality == 1 else int(i) / (p.cardinality - 1)
        return out

    # -- subspaces ---------------------------------------------------------------

    def subset(self, names: Sequence[str]) -> "ParameterSpace":
        """A new space containing only ``names``, preserving this space's
        order (not the order of ``names``)."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        return ParameterSpace([p for p in self._params if p.name in wanted])


# -- cross-parameter constraints ----------------------------------------------------
#
# A candidate-value set bounds each parameter individually, but nothing in
# the genome encoding stops the GA from assembling *combinations* that no
# real stack would accept: a stripe count above the file system's OST
# count, more collective-buffering aggregators than MPI ranks, an HDF5
# alignment coarser than the Lustre stripe it is meant to align with.
# Exploring those wastes generations (Lustre/ROMIO silently clamp them,
# so whole regions of the genome space alias to the same behaviour) and
# makes reported "best" configurations unreproducible on the testbed.
#
# The registry below makes the rules declarative: each constraint can
# *check* an assignment and *repair* it deterministically (always by
# lowering the offending parameter to the largest candidate that
# satisfies the rule, so repair is idempotent and order-stable).


@dataclass(frozen=True)
class ConstraintContext:
    """Run-scale facts constraints are evaluated against.

    ``None`` for a field means "unknown": constraints needing it are
    skipped, so an unbound registry never rejects anything the candidate
    sets allow.
    """

    #: Object storage targets of the file system (bounds stripe count).
    n_osts: int | None = None
    #: Total MPI ranks of the tuned job (bounds aggregator count).
    n_procs: int | None = None

    def __post_init__(self) -> None:
        if self.n_osts is not None and self.n_osts < 1:
            raise ValueError("n_osts must be >= 1 (or None)")
        if self.n_procs is not None and self.n_procs < 1:
            raise ValueError("n_procs must be >= 1 (or None)")

    @classmethod
    def for_run(cls, platform: Any, workload: Any = None) -> "ConstraintContext":
        """Context for tuning ``workload`` on ``platform`` (objects with
        ``n_osts`` / ``n_procs`` attributes; either may be None)."""
        n_osts = getattr(platform, "n_osts", None) if platform is not None else None
        if workload is not None:
            n_procs = getattr(workload, "n_procs", None)
        else:
            n_procs = getattr(platform, "total_procs", None) if platform is not None else None
        return cls(n_osts=n_osts, n_procs=n_procs)


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated rule, with an actionable suggestion."""

    constraint: str
    parameter: str
    message: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.message}"


class ConstraintViolationError(ValueError):
    """A configuration failed strict validation.

    Carries the individual :class:`ConstraintViolation` entries so
    callers (the CLI) can render each with its suggested fix.
    """

    def __init__(self, violations: Sequence[ConstraintViolation]):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"configuration violates {len(self.violations)} constraint(s): {lines}")


def _largest_candidate_leq(param: Parameter, bound: int) -> Any | None:
    """The largest numeric candidate <= bound (None when all exceed it)."""
    ok = [v for v in param.values if isinstance(v, (int, float)) and v <= bound]
    return max(ok) if ok else None


class UpperBoundConstraint:
    """``param <= bound(context)`` for a numeric parameter.

    ``bound`` maps a :class:`ConstraintContext` to the inclusive limit,
    or to ``None`` when the context does not pin one (constraint
    skipped).  Repair clamps to the largest candidate within the bound
    (or the smallest candidate overall if every candidate exceeds it --
    validate still reports that residue).
    """

    def __init__(self, param: str, bound: Callable[[ConstraintContext], int | None],
                 name: str, description: str):
        self.param = param
        self.bound = bound
        self.name = name
        self.description = description

    def parameters(self) -> tuple[str, ...]:
        return (self.param,)

    def check(self, values: Mapping[str, Any], space: ParameterSpace,
              context: ConstraintContext) -> ConstraintViolation | None:
        if self.param not in space:
            return None
        limit = self.bound(context)
        if limit is None:
            return None
        value = values[self.param]
        if value <= limit:
            return None
        suggestion = _largest_candidate_leq(space[self.param], limit)
        hint = (
            f"; repair would set {self.param}={suggestion}"
            if suggestion is not None
            else f"; no candidate value of {self.param} fits (smallest is "
                 f"{min(space[self.param].values)})"
        )
        return ConstraintViolation(
            constraint=self.name,
            parameter=self.param,
            message=f"{self.param}={value} exceeds {self.description} ({limit}){hint}",
        )

    def repair(self, values: dict[str, Any], space: ParameterSpace,
               context: ConstraintContext) -> bool:
        if self.param not in space:
            return False
        limit = self.bound(context)
        if limit is None or values[self.param] <= limit:
            return False
        candidate = _largest_candidate_leq(space[self.param], limit)
        if candidate is None:
            candidate = min(space[self.param].values)
        if values[self.param] == candidate:
            return False
        values[self.param] = candidate
        return True


class DivisibilityConstraint:
    """``dividend % divisor == 0`` between two size parameters.

    The finer parameter (``divisor``) must evenly divide the coarser one
    (``dividend``); repair lowers the divisor to the largest candidate
    that divides the current dividend value.  Non-positive values (e.g.
    the alignment-off sentinel ``1``) always satisfy the rule as long as
    they divide.
    """

    def __init__(self, divisor: str, dividend: str, name: str, description: str):
        self.divisor = divisor
        self.dividend = dividend
        self.name = name
        self.description = description

    def parameters(self) -> tuple[str, ...]:
        return (self.divisor, self.dividend)

    def _divides(self, divisor: Any, dividend: Any) -> bool:
        if not isinstance(divisor, int) or not isinstance(dividend, int):
            return True
        if divisor <= 0 or dividend <= 0:
            return True
        return dividend % divisor == 0

    def check(self, values: Mapping[str, Any], space: ParameterSpace,
              context: ConstraintContext) -> ConstraintViolation | None:
        if self.divisor not in space or self.dividend not in space:
            return None
        a, b = values[self.divisor], values[self.dividend]
        if self._divides(a, b):
            return None
        fix = self._best_divisor(space[self.divisor], b)
        hint = f"; repair would set {self.divisor}={fix}" if fix is not None else ""
        return ConstraintViolation(
            constraint=self.name,
            parameter=self.divisor,
            message=f"{self.divisor}={a} does not divide {self.dividend}={b} "
                    f"({self.description}){hint}",
        )

    def _best_divisor(self, param: Parameter, dividend: Any) -> Any | None:
        ok = [
            v for v in param.values
            if isinstance(v, int) and self._divides(v, dividend)
        ]
        return max(ok) if ok else None

    def repair(self, values: dict[str, Any], space: ParameterSpace,
               context: ConstraintContext) -> bool:
        if self.divisor not in space or self.dividend not in space:
            return False
        a, b = values[self.divisor], values[self.dividend]
        if self._divides(a, b):
            return False
        candidate = self._best_divisor(space[self.divisor], b)
        if candidate is None:
            candidate = min(v for v in space[self.divisor].values if isinstance(v, int))
        if values[self.divisor] == candidate:
            return False
        values[self.divisor] = candidate
        return True


#: Repair passes before declaring non-convergence (each pass only lowers
#: values, so the fixed point is reached in at most one pass per
#: constraint; the margin is defensive).
_MAX_REPAIR_PASSES = 8


class ConstraintRegistry:
    """An ordered set of cross-parameter constraints over one space.

    ``validate`` is the strict gate for user-supplied configurations
    (raises :class:`ConstraintViolationError` with one actionable line
    per violation); ``repair`` is the deterministic, idempotent projection
    the GA applies to every bred genome so variation can never emit an
    invalid individual.  Because every repair step only *lowers* the
    offending parameter to the largest satisfying candidate, repair
    converges to the same fixed point whatever order the constraints are
    applied in (chaotic iteration of deflationary monotone operators).
    """

    def __init__(
        self,
        space: ParameterSpace,
        constraints: Sequence[Any],
        context: ConstraintContext | None = None,
    ):
        self.space = space
        self.constraints = tuple(constraints)
        self.context = context if context is not None else ConstraintContext()

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.constraints)

    def violations(
        self, values: Mapping[str, Any], context: ConstraintContext | None = None
    ) -> list[ConstraintViolation]:
        """Every violated constraint for a full name->value assignment."""
        ctx = context if context is not None else self.context
        out = []
        for constraint in self.constraints:
            violation = constraint.check(values, self.space, ctx)
            if violation is not None:
                out.append(violation)
        return out

    def validate(
        self, values: Mapping[str, Any], context: ConstraintContext | None = None
    ) -> None:
        """Strict gate: raise :class:`ConstraintViolationError` listing
        every violation (with its suggested repair) if any rule fails."""
        found = self.violations(values, context)
        if found:
            raise ConstraintViolationError(found)

    def repair(
        self, values: Mapping[str, Any], context: ConstraintContext | None = None
    ) -> dict[str, Any]:
        """A constraint-clean copy of ``values``.

        Deterministic and idempotent: repairing an already-clean
        assignment returns an equal dict, and repairing a repaired one
        changes nothing.  Runs the constraint list to a fixed point so
        one repair cannot un-satisfy an earlier rule.
        """
        ctx = context if context is not None else self.context
        out = dict(values)
        for _ in range(_MAX_REPAIR_PASSES):
            changed = False
            for constraint in self.constraints:
                changed |= constraint.repair(out, self.space, ctx)
            if not changed:
                return out
        raise RuntimeError(
            f"constraint repair did not converge in {_MAX_REPAIR_PASSES} passes "
            f"(registry {self.constraints!r} is not deflationary)"
        )  # pragma: no cover - guarded by construction

    def repair_genome(
        self,
        indices: Sequence[int] | np.ndarray,
        context: ConstraintContext | None = None,
    ) -> np.ndarray:
        """Genome-level repair: decode, repair, re-encode.  Returns the
        input array unchanged (same object) when already clean, so GA
        callers can cheaply detect no-ops."""
        values = self.space.decode(indices)
        repaired = self.repair(values, context)
        if repaired == values:
            return np.asarray(indices, dtype=np.int64)
        return self.space.encode(repaired)


def default_constraints(
    space: ParameterSpace | None = None,
    context: ConstraintContext | None = None,
) -> ConstraintRegistry:
    """The stock rules for the paper's HDF5/MPI-IO/Lustre space.

    ===================  =======================================================
    constraint           rule
    ===================  =======================================================
    stripe-vs-osts       ``striping_factor <= platform OST count``
    aggregators-vs-ranks ``cb_nodes <= job MPI ranks``
    alignment-divides    ``striping_unit % alignment == 0`` (HDF5 objects land
                         on stripe boundaries)
    stripe-divides-cb    ``cb_buffer_size % striping_unit == 0`` (each ROMIO
                         flush covers whole stripes)
    ===================  =======================================================

    Constraints referring to parameters absent from ``space`` are kept
    but skip silently, so subset spaces work unchanged.
    """
    if space is None:
        space = TUNED_SPACE
    return ConstraintRegistry(
        space,
        (
            UpperBoundConstraint(
                "striping_factor",
                lambda ctx: ctx.n_osts,
                name="stripe-vs-osts",
                description="the file system's OST count",
            ),
            UpperBoundConstraint(
                "cb_nodes",
                lambda ctx: ctx.n_procs,
                name="aggregators-vs-ranks",
                description="the job's MPI rank count",
            ),
            DivisibilityConstraint(
                "alignment",
                "striping_unit",
                name="alignment-divides-stripe",
                description="HDF5 alignment must place objects on Lustre "
                            "stripe boundaries",
            ),
            DivisibilityConstraint(
                "striping_unit",
                "cb_buffer_size",
                name="stripe-divides-cb",
                description="collective buffer flushes must cover whole stripes",
            ),
        ),
        context=context,
    )


def _build_tuned_space() -> ParameterSpace:
    return ParameterSpace(
        [
            Parameter(
                "sieve_buf_size",
                "hdf5",
                (64 * KiB, 256 * KiB, 512 * KiB, MiB, 4 * MiB, 16 * MiB, 32 * MiB, 64 * MiB),
                default=64 * KiB,
                description="HDF5 data-sieving buffer size (H5Pset_sieve_buf_size)",
            ),
            Parameter(
                "chunk_cache_size",
                "hdf5",
                (MiB, 4 * MiB, 16 * MiB, 64 * MiB, 128 * MiB, 256 * MiB, 512 * MiB, GiB),
                default=MiB,
                description="HDF5 raw-data chunk cache size (H5Pset_cache)",
            ),
            Parameter(
                "alignment",
                "hdf5",
                (1, 64 * KiB, 256 * KiB, 512 * KiB, MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB),
                default=1,
                description="HDF5 object alignment threshold (H5Pset_alignment)",
            ),
            Parameter(
                "meta_block_size",
                "hdf5",
                (2 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, MiB, 2 * MiB, 4 * MiB, 16 * MiB),
                default=2 * KiB,
                description="HDF5 metadata block aggregation size (H5Pset_meta_block_size)",
            ),
            Parameter(
                "coll_metadata_ops",
                "hdf5",
                (False, True),
                default=False,
                kind="boolean",
                description="Collective HDF5 metadata reads (H5Pset_all_coll_metadata_ops)",
            ),
            Parameter(
                "mdc_config",
                "hdf5",
                ("default", "small", "large", "adaptive"),
                default="default",
                kind="categorical",
                description="HDF5 metadata cache configuration (H5Pset_mdc_config)",
            ),
            Parameter(
                "coll_metadata_write",
                "hdf5",
                (False, True),
                default=False,
                kind="boolean",
                description="Collective HDF5 metadata writes (H5Pset_coll_metadata_write)",
            ),
            Parameter(
                "striping_factor",
                "lustre",
                (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 248),
                default=1,
                description="Lustre stripe count (number of OSTs a file spans)",
            ),
            Parameter(
                "striping_unit",
                "lustre",
                (128 * KiB, 256 * KiB, 512 * KiB, MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB),
                default=MiB,
                description="Lustre stripe size",
            ),
            Parameter(
                "cb_nodes",
                "mpiio",
                (1, 2, 4, 8, 16, 32, 64, 128, 256, 384, 512, 640, 768, 896, 1024, 1600),
                default=4,
                description="ROMIO two-phase collective-buffering aggregator count",
            ),
            Parameter(
                "cb_buffer_size",
                "mpiio",
                (MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB, 64 * MiB, 128 * MiB),
                default=16 * MiB,
                description="ROMIO collective buffer size per aggregator",
            ),
            Parameter(
                "romio_collective",
                "mpiio",
                (False, True),
                default=False,
                kind="boolean",
                description="Enable two-phase collective I/O (romio_cb_write/read)",
            ),
        ]
    )


#: The 12-parameter space tuned throughout the paper's evaluation.
TUNED_SPACE: ParameterSpace = _build_tuned_space()


@dataclass(frozen=True)
class LibraryCatalog:
    """Parameter *counts* of a real I/O library, used for Figure 1.

    The counts are lower bounds drawn from each library's public
    configuration surface; Figure 1 only needs relative magnitudes.
    """

    name: str
    discrete: int
    continuous: int

    def permutations(
        self, per_discrete: int = 2, per_continuous: int = 5
    ) -> int:
        """Lower-bound permutation count with the paper's rule of two
        values per discrete parameter and five per continuous one."""
        if per_discrete < 1 or per_continuous < 1:
            raise ValueError("value counts must be >= 1")
        return per_discrete**self.discrete * per_continuous**self.continuous


#: Figure 1's library population.  Counts are conservative lower bounds on
#: each library's user-visible tunables.
LIBRARY_CATALOG: dict[str, LibraryCatalog] = {
    c.name: c
    for c in (
        LibraryCatalog("HDF5", discrete=27, continuous=6),
        LibraryCatalog("PNetCDF", discrete=12, continuous=4),
        LibraryCatalog("MPI", discrete=22, continuous=3),
        LibraryCatalog("ADIOS", discrete=18, continuous=5),
        LibraryCatalog("OpenSHMEMX", discrete=10, continuous=2),
        LibraryCatalog("Hermes", discrete=14, continuous=6),
    )
}


def stack_permutations(
    libraries: Sequence[str], per_discrete: int = 2, per_continuous: int = 5
) -> int:
    """Permutation count of a stack composed of ``libraries`` (Figure 1's
    worst case where every layer's parameters multiply)."""
    total = 1
    for name in libraries:
        try:
            catalog = LIBRARY_CATALOG[name]
        except KeyError:
            raise KeyError(
                f"unknown library {name!r}; known: {sorted(LIBRARY_CATALOG)}"
            ) from None
        total *= catalog.permutations(per_discrete, per_continuous)
    return total
