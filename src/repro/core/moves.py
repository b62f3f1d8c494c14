"""Move and schedule-of-moves value types used by the planner.

A *move* is a reconfiguration from ``B`` machines to ``A`` machines with a
definite start and end expressed in planner time intervals (Section 4.3 of
the paper).  ``B == A`` is the valid "do nothing" move, which by convention
lasts exactly one interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..errors import PlanningError


@dataclass(frozen=True)
class Move:
    """One reconfiguration step in a planned schedule.

    Attributes
    ----------
    start:
        first time interval of the move (inclusive).
    end:
        last time interval of the move (exclusive); ``end - start`` is the
        duration in intervals and is always >= 1.
    before:
        machines allocated when the move starts (``B``).
    after:
        machines allocated once the move completes (``A``).
    """

    start: int
    end: int
    before: int
    after: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise PlanningError(
                f"move must last at least one interval (start={self.start}, end={self.end})"
            )
        if self.before < 1 or self.after < 1:
            raise PlanningError(
                f"cluster sizes must be >= 1 (B={self.before}, A={self.after})"
            )

    @property
    def duration(self) -> int:
        """Length of the move in whole time intervals."""
        return self.end - self.start

    @property
    def is_noop(self) -> bool:
        """True for the "do nothing" move (B == A)."""
        return self.before == self.after

    @property
    def is_scale_out(self) -> bool:
        return self.after > self.before

    @property
    def is_scale_in(self) -> bool:
        return self.after < self.before

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = "==" if self.is_noop else "->"
        return f"[{self.start:>3}..{self.end:>3}) {self.before}{arrow}{self.after}"


class MoveSchedule:
    """An ordered, contiguous, non-overlapping sequence of moves.

    This is the object returned by the planner (the ``M`` of Algorithm 1).
    Contiguity is enforced: each move starts where the previous one ended
    and hands over the machine count unchanged.  A schedule is immutable
    (a tuple of frozen moves), so the planner hands one out again for a
    request with the same answer.
    """

    def __init__(self, moves: Iterable[Move]):
        self._moves: Tuple[Move, ...] = tuple(moves)
        self._validate()
        self._first_real_move = next(
            (move for move in self._moves if not move.is_noop), None
        )

    def _validate(self) -> None:
        for prev, cur in zip(self._moves, self._moves[1:]):
            if cur.start != prev.end:
                raise PlanningError(
                    f"moves must be contiguous: {prev} then {cur}"
                )
            if cur.before != prev.after:
                raise PlanningError(
                    f"machine counts must chain: {prev} then {cur}"
                )

    def __len__(self) -> int:
        return len(self._moves)

    def __iter__(self):
        return iter(self._moves)

    def __getitem__(self, idx):
        return self._moves[idx]

    def __bool__(self) -> bool:
        return bool(self._moves)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoveSchedule):
            return NotImplemented
        return self._moves == other._moves

    @property
    def moves(self) -> Sequence[Move]:
        return self._moves

    @property
    def first_real_move(self) -> Move | None:
        """The first move that actually changes the cluster size, if any.

        The controller executes only the first *real* move of each plan
        (receding-horizon control, Section 6).  Found once, when the
        schedule is built: a schedule is immutable, and the planner's memo
        hands the same one out again.
        """
        return self._first_real_move

    @property
    def final_machines(self) -> int:
        if not self._moves:
            raise PlanningError("empty schedule has no final machine count")
        return self._moves[-1].after

    @property
    def horizon(self) -> int:
        """Last interval covered by the schedule."""
        if not self._moves:
            return 0
        return self._moves[-1].end

    def machines_at(self, t: int) -> int:
        """Machines allocated at interval ``t`` under this schedule.

        During a scale-out move the *after* count is conservative for cost
        but machines arrive just-in-time; for planning purposes the paper
        accounts a move's cost via Algorithm 4, so this helper reports the
        move's ``after`` count once the move has completed and ``before``
        count while it is in flight.
        """
        if not self._moves:
            raise PlanningError("empty schedule")
        if t < self._moves[0].start:
            return self._moves[0].before
        for move in self._moves:
            if move.start <= t < move.end:
                return move.before if not move.is_noop else move.after
        return self._moves[-1].after

    def total_cost(self, cost_fn) -> float:
        """Sum of per-move costs given a ``cost_fn(move) -> float``."""
        return sum(cost_fn(move) for move in self._moves)

    def describe(self) -> str:
        """Multi-line human-readable rendering of the schedule."""
        if not self._moves:
            return "(empty schedule)"
        return "\n".join(str(m) for m in self._moves)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(m) for m in self._moves)
        return f"MoveSchedule({inner})"
