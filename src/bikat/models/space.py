"""Finite state spaces, optionally structured by variable declarations.

A structured space packs variables and array cells into bit fields of one
integer state, so states double as indices.  Sizes are capped; problems that
would exceed the cap are refused rather than silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SIZE_CAP = 1 << 21


class SpaceError(Exception):
    pass


@dataclass(frozen=True)
class VarDecl:
    name: str
    width: int


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    length: int
    width: int


@dataclass(frozen=True)
class StateSpace:
    size: int
    vars: tuple[VarDecl, ...] = ()
    arrays: tuple[ArrayDecl, ...] = ()
    _offsets: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.size < 1:
            raise SpaceError("state space must be nonempty")
        if self.size > SIZE_CAP:
            raise SpaceError(
                f"state space of {self.size} states exceeds the cap of {SIZE_CAP}")
        off = 0
        offsets = {}
        for v in self.vars:
            offsets[v.name] = (off, v.width)
            off += v.width
        for a in self.arrays:
            for i in range(a.length):
                offsets[(a.name, i)] = (off, a.width)
                off += a.width
        if self.vars or self.arrays:
            if self.size != 1 << off:
                raise SpaceError(
                    f"declared structure needs {1 << off} states, size says {self.size}")
        object.__setattr__(self, "_offsets", offsets)

    @staticmethod
    def plain(size: int) -> "StateSpace":
        return StateSpace(size)

    @staticmethod
    def structured(vars: list[VarDecl], arrays: list[ArrayDecl] = ()) -> "StateSpace":
        seen: set[str] = set()
        for d in [*vars, *arrays]:
            if d.name in seen:
                raise SpaceError(f"{d.name!r} is declared twice")
            seen.add(d.name)
        for a in arrays:
            if a.length < 1:
                raise SpaceError(f"array {a.name!r} has no cells")
        bits =sum(v.width for v in vars) + sum(a.length * a.width for a in arrays)
        if bits > SIZE_CAP.bit_length() - 1:
            raise SpaceError(
                f"declared structure needs 2^{bits} states, cap is {SIZE_CAP}")
        return StateSpace(1 << bits, tuple(vars), tuple(arrays))

    # field access --------------------------------------------------------

    def get(self, state: int, name) -> int:
        off, width = self._offsets[name]
        return state >> off & ((1 << width) - 1)

    def set(self, state: int, name, value: int) -> int:
        off, width = self._offsets[name]
        mask = (1 << width) - 1
        return (state & ~(mask << off)) | ((value & mask) << off)

    def width_of(self, name) -> int:
        return self._offsets[name][1]

    def field(self, name) -> tuple[int, int]:
        """(bit offset, width) of a declared variable or array cell."""
        try:
            return self._offsets[name]
        except KeyError:
            raise SpaceError(f"undeclared variable or cell {name!r}") from None

    def fields(self) -> list:
        """Every variable and array-cell key, in bit order."""
        return list(self._offsets)

    def has_field(self, name) -> bool:
        return name in self._offsets

    def array_decl(self, name: str) -> ArrayDecl | None:
        for a in self.arrays:
            if a.name == name:
                return a
        return None

    def state_str(self, state: int) -> str:
        if not self.vars and not self.arrays:
            return str(state)
        parts = [f"{v.name}={self.get(state, v.name)}" for v in self.vars]
        for a in self.arrays:
            cells = [str(self.get(state, (a.name, i))) for i in range(a.length)]
            parts.append(f"{a.name}=[{','.join(cells)}]")
        return "{" + ", ".join(parts) + "}"
