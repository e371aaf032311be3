"""Finite state spaces, optionally structured by variable declarations.

A structured space packs variables and array cells into bit fields of one
integer state, so states double as indices.  Sizes are capped; problems that
would exceed the cap are refused rather than silently truncated.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
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

    def bits(self, fields: Iterable | None) -> int | None:
        """The bits that `fields` take in a state; None for the whole state
        (no fields given, or fields that cover every bit)."""
        if fields is None:
            return None
        mask = 0
        for off, width in map(self.field, fields):
            mask |= (1 << width) - 1 << off
        return None if mask == self.size - 1 else mask

    def lift(self, fields: Iterable | None, fn: Callable[[int], int],
             into: Callable = list):
        """The values of `fn` at every state, in state order, for a function
        of the state that reads only `fields` (None: the whole state), as
        `into` makes a sequence of values: a list, or `bytes` or a packing
        function for a bytes column.

        `fn` runs once per footprint value, a state whose bits outside the
        footprint are 0, and `into` once, on all those values in ascending
        order.  The column is then assembled from that one sequence by
        slicing and repetition, at C speed: below each run of adjacent
        footprint bits, each slice of the values of the lower runs repeats
        across the gap to the run, and the whole repeats above the highest
        run.  A footprint that spans the whole state is evaluated at every
        state."""
        return self._lift_bits(self.bits(fields), fn, into)

    def _lift_bits(self, mask: int | None, fn: Callable[[int], int], into: Callable):
        """`lift` of a function that reads only the bits of `mask`."""
        n = self.size
        if mask is None:
            return into(map(fn, range(n)))
        runs = _runs(mask)
        reps = _footprint_values(runs)
        return _spread(runs, into(map(fn, reps)), len(reps), n)

    def footprint_values(self, mask: int) -> list[int]:
        """Every value of the bits of `mask`, the other bits 0, ascending:
        the states at which `lift` runs its function."""
        return _footprint_values(_runs(mask))

    def packed(self, fields: Iterable | None, fn: Callable[[int], int]) -> int:
        """`lift` of `fn`, whose values lie in 0..size-1, packed into one
        int: the value at state s fills the s-th slot of the item width of
        `state_code`.  Packed columns add and subtract slot by slot as long
        as every slot of the result stays in 0..2*size-1.  With `fn` =
        `int`, the footprint bits of each state, nothing is lifted: the
        packed states are masked slot by slot, by the footprint bits times
        `ones`."""
        return self._packed(self.bits(fields), fn)

    def _packed(self, mask: int | None, fn: Callable[[int], int]) -> int:
        n = self.size
        if fn is int:
            states = packed_states(n)
            return states if mask is None else states & mask * ones(n)
        code = state_code(n).upper()
        return int.from_bytes(
            self._lift_bits(mask, fn, lambda vals: array(code, vals).tobytes()), "little")

    def moved(self, mask: int | None, fn: Callable[[int], int]) -> array:
        """The state array of s - r + fn(r), r = s & mask the footprint bits
        of s (None: the whole state), for `fn` mapping a footprint value to
        a state whose bits outside the mask are 0, or to a negative value,
        which the array then holds itself.  So a function of the footprint
        moves every state: a successor table, or the end column of a framed
        term.  The column is packed arithmetic on lifted columns (`packed`):
        the frame bits s - r plus the lift of `fn`; where `fn` is negative,
        the frame is first masked out of the slot."""
        n = self.size
        if mask is None:
            return array(state_code(n), map(fn, range(n)))
        reps = self.footprint_values(mask)
        ends = dict(zip(reps, map(fn, reps)))
        frame = packed_states(n) - self._packed(mask, int)
        if min(ends.values()) < 0:
            top = (1 << 8 * array(state_code(n)).itemsize) - 1  # every bit of a slot
            frame &= self._packed(mask, lambda r: 0 if ends[r] < 0 else top)
            ends = {r: e & top for r, e in ends.items()}
        return self.unpack(frame + self._packed(mask, ends.__getitem__))

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


def _runs(mask: int) -> list[tuple[int, int]]:
    """(offset, width) of each run of adjacent 1 bits of `mask`, lowest
    first."""
    return [(m.start(), len(m[0])) for m in re.finditer("1+", bin(mask)[:1:-1])]


def _footprint_values(runs: list[tuple[int, int]]) -> list[int]:
    """Every value of the bits of `runs`, the other bits 0, ascending."""
    reps = [0]
    for off, width in runs:
        reps = [r | v << off for v in range(1 << width) for r in reps]
    return reps


def _spread(runs: list[tuple[int, int]], flat, count: int, n: int):
    """The column over `n` states of `flat`, a sequence of the values at the
    `count` footprint values of `runs` in ascending order, each value the
    same number of entries long."""
    raw = isinstance(flat, bytes)
    chunk, end = len(flat) // count, 0  # entries of the states below a run
    for off, width in runs:
        gap = 1 << (off - end)
        if gap > 1:  # each chunk repeats across the gap below the run
            out = bytearray() if raw else []
            for i in range(0, len(flat), chunk):
                out += flat[i:i + chunk] * gap
            flat, chunk = bytes(out) if raw else out, chunk * gap
        chunk <<= width
        end = off + width
    return flat * (n >> end)


def packed_states(size: int) -> int:
    """The states 0..size-1 as a packed column (see `StateSpace.packed`)."""
    return _packed_columns(size)[0]


def ones(size: int) -> int:
    """A 1 in every slot of a packed column over `size` states: a value
    times `ones` fills every slot with it."""
    return _packed_columns(size)[1]


@lru_cache(maxsize=None)
def _packed_columns(size: int) -> tuple[int, int]:
    """`packed_states` and `ones`, made together once per size and kept for
    the process.  Made apart, `ones` came later, among the short-lived
    columns of a check, and raised the peak RSS of a refute run by about
    0.3 MB."""
    code = state_code(size).upper()
    return (int.from_bytes(array(code, list(range(size))).tobytes(), "little"),
            int.from_bytes(array(code, [1]).tobytes() * size, "little"))
