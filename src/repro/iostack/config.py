"""Stack configurations and the H5Tuner-style override mechanism.

The paper's reference implementation injects candidate configurations into
HDF5 applications through H5Tuner, which intercepts ``H5Fcreate``/
``H5Fopen`` and applies parameter overrides read from an XML file -- no
recompilation.  :class:`StackConfiguration` is the in-memory form;
:func:`to_xml` / :func:`from_xml` round-trip the H5Tuner file format so a
configuration can be handed to an external runner.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Iterator, Mapping

import numpy as np

from .parameters import (
    TUNED_SPACE,
    ConstraintContext,
    ConstraintRegistry,
    ConstraintViolation,
    ParameterSpace,
)

__all__ = ["StackConfiguration", "to_xml", "from_xml"]

# XML section element per stack layer, mirroring H5Tuner's config format.
_LAYER_SECTIONS = {"hdf5": "HDF5", "mpiio": "MPI-IO", "lustre": "Lustre"}
_SECTION_LAYERS = {v: k for k, v in _LAYER_SECTIONS.items()}


class StackConfiguration(Mapping[str, Any]):
    """An immutable assignment of values to every parameter of a space.

    Behaves as a read-only mapping from parameter name to value.  Equality
    and hashing consider both the space and the values, so configurations
    can be used as dict keys (e.g. for evaluation caching).
    """

    __slots__ = ("_space", "_values", "_hash")

    def __init__(self, space: ParameterSpace, values: Mapping[str, Any]):
        unknown = set(values) - set(space.names)
        if unknown:
            raise KeyError(f"values for unknown parameters: {sorted(unknown)}")
        merged = space.default_values()
        merged.update(values)
        # Validate through encode (raises on non-candidate values).
        space.encode(merged)
        self._space = space
        self._values = merged
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def default(cls, space: ParameterSpace = TUNED_SPACE) -> "StackConfiguration":
        """The untuned configuration (all library defaults)."""
        return cls(space, {})

    @classmethod
    def random(
        cls, rng: np.random.Generator, space: ParameterSpace = TUNED_SPACE
    ) -> "StackConfiguration":
        """A uniformly random configuration."""
        return cls(space, space.random_values(rng))

    @classmethod
    def from_genome(
        cls, space: ParameterSpace, indices: np.ndarray | list[int]
    ) -> "StackConfiguration":
        """Build from an index vector in genome order."""
        return cls(space, space.decode(indices))

    # -- mapping protocol ------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.names)

    def __len__(self) -> int:
        return len(self._space)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StackConfiguration):
            return NotImplemented
        return self._space == other._space and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._space.names, tuple(self._values[n] for n in self._space.names))
            )
        return self._hash

    def __repr__(self) -> str:
        non_default = {
            n: v for n, v in self._values.items() if v != self._space[n].default
        }
        return f"StackConfiguration({non_default or 'defaults'})"

    # -- accessors ----------------------------------------------------------------

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def genome(self) -> np.ndarray:
        """Index-vector encoding in genome order."""
        return self._space.encode(self._values)

    def normalized(self) -> np.ndarray:
        """Values mapped to [0,1]^n; NN feature representation."""
        return self._space.normalized(self.genome())

    def layer(self, layer: str) -> dict[str, Any]:
        """All values consumed by one stack layer."""
        return {
            p.name: self._values[p.name] for p in self._space if p.layer == layer
        }

    def changed_parameters(self) -> dict[str, Any]:
        """Parameters whose value differs from the library default (the
        paper reports e.g. 'seven parameters changed from defaults')."""
        return {
            n: v for n, v in self._values.items() if v != self._space[n].default
        }

    # -- functional updates ----------------------------------------------------------

    def with_values(self, **updates: Any) -> "StackConfiguration":
        """A new configuration with some parameters replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return StackConfiguration(self._space, merged)

    # -- cross-parameter constraints ----------------------------------------------

    def violations(
        self,
        registry: "ConstraintRegistry",
        context: "ConstraintContext | None" = None,
    ) -> list["ConstraintViolation"]:
        """Constraints of ``registry`` this configuration violates."""
        return registry.violations(self._values, context)

    def validate(
        self,
        registry: "ConstraintRegistry",
        context: "ConstraintContext | None" = None,
    ) -> None:
        """Raise :class:`~repro.iostack.parameters.ConstraintViolationError`
        if any constraint of ``registry`` fails; actionable per-violation
        messages include the repaired value."""
        registry.validate(self._values, context)

    def repaired(
        self,
        registry: "ConstraintRegistry",
        context: "ConstraintContext | None" = None,
    ) -> "StackConfiguration":
        """A constraint-clean copy (``self`` when already clean, so the
        happy path allocates nothing new)."""
        fixed = registry.repair(self._values, context)
        if fixed == self._values:
            return self
        return StackConfiguration(self._space, fixed)


def to_xml(config: StackConfiguration) -> str:
    """Serialise to the H5Tuner-style XML override file.

    Layout::

        <Parameters>
          <HDF5>
            <sieve_buf_size>1048576</sieve_buf_size>
            ...
          </HDF5>
          <MPI-IO>...</MPI-IO>
          <Lustre>...</Lustre>
        </Parameters>
    """
    root = ET.Element("Parameters")
    for layer, section in _LAYER_SECTIONS.items():
        values = config.layer(layer)
        if not values:
            continue
        elem = ET.SubElement(root, section)
        for name, value in values.items():
            child = ET.SubElement(elem, name)
            child.text = _render(value)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def from_xml(text: str, space: ParameterSpace = TUNED_SPACE) -> StackConfiguration:
    """Parse an H5Tuner-style XML override file produced by :func:`to_xml`.

    Unlisted parameters take their defaults, matching H5Tuner semantics
    (the interceptor only overrides what the file mentions).
    """
    root = ET.fromstring(text)
    if root.tag != "Parameters":
        raise ValueError(f"expected <Parameters> root, got <{root.tag}>")
    values: dict[str, Any] = {}
    for section in root:
        if section.tag not in _SECTION_LAYERS:
            raise ValueError(f"unknown section <{section.tag}>")
        for child in section:
            if child.tag not in space:
                raise KeyError(f"unknown parameter {child.tag!r}")
            values[child.tag] = _parse(child.text or "", space[child.tag].values)
    return StackConfiguration(space, values)


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse(text: str, candidates: tuple[Any, ...]) -> Any:
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    # Categorical string: must match a candidate exactly.
    if text in candidates:
        return text
    raise ValueError(f"cannot parse parameter value {text!r}")
