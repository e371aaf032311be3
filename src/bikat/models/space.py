"""Finite state spaces, optionally structured by variable declarations.

A structured space packs variables and array cells into bit fields of one
integer state, so states double as indices.  Sizes are capped; problems that
would exceed the cap are refused rather than silently truncated.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable

SIZE_CAP = 1 << 21


def state_code(size: int) -> str:
    """The `array` type code of a column of states (or -1) over `size` states:
    two bytes an entry when the states fit."""
    return "h" if size <= 1 << 15 else "i"


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

    def lift(self, fields: Iterable | None, fn: Callable[[int], int],
             into: Callable = list):
        """The values of `fn` at every state, in state order, for a function
        of the state that reads only `fields` (None: the whole state), as
        `into` makes a sequence of values: a list, or `bytes` or a packing
        function for a bytes column.

        `fn` runs once per value of the footprint, at the state whose other
        bits are 0.  The column is then assembled by sequence repetition and
        concatenation, at C speed: over the states below each run of
        adjacent footprint bits, the column for one value of the higher runs
        is the columns below the run, each repeated across the gap to the
        run, one per value of the run.  A footprint that spans the whole
        state is evaluated at every state."""
        n = self.size
        runs: list[list[int]] = []  # [offset, width], adjacent fields merged
        if fields is not None:
            for off, width in sorted({self.field(f) for f in fields}):
                if runs and sum(runs[-1]) == off:
                    runs[-1][1] += width
                else:
                    runs.append([off, width])
        if fields is None or 1 << sum(w for _, w in runs) == n:
            return into(map(fn, range(n)))
        # footprint values, the first run in the low bits
        reps = [0]
        for off, width in runs:
            reps = [r | v << off for v in range(1 << width) for r in reps]
        cols = [into((v,)) for v in map(fn, reps)]
        end = 0
        for off, width in runs:
            gap, step = 1 << (off - end), 1 << width
            cols = [_concat([c * gap for c in cols[i:i + step]])
                    for i in range(0, len(cols), step)]
            end = off + width
        return cols[0] * (n >> end)

    def packed(self, fields: Iterable | None, fn: Callable[[int], int]) -> int:
        """`lift` of `fn`, whose values lie in 0..size-1, packed into one
        int: the value at state s fills the s-th slot of the item width of
        `state_code`.  Packed columns add and subtract slot by slot as long
        as every slot of the result stays in 0..2*size-1."""
        code = state_code(self.size).upper()
        return int.from_bytes(
            self.lift(fields, fn, lambda vals: array(code, vals).tobytes()), "little")

    def unpack(self, column: int) -> array:
        """The state array of a packed column."""
        code = state_code(self.size)
        return array(code, column.to_bytes(self.size * array(code).itemsize, "little"))

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


def _concat(parts: list):
    if isinstance(parts[0], bytes):
        return b"".join(parts)
    return list(chain.from_iterable(parts))


@lru_cache(maxsize=None)
def packed_states(size: int) -> int:
    """The states 0..size-1 as a packed column (see `StateSpace.packed`)."""
    code = state_code(size).upper()
    return int.from_bytes(array(code, list(range(size))).tobytes(), "little")
