"""Per-site two-bit saturating branch predictor.

Each conditional branch site gets its own counter with the classic four
states.  Taken moves the counter toward strongly-taken, not-taken toward
strongly-not-taken, one step per outcome:

    ST  taken -> ST     not taken -> WT
    WT  taken -> ST     not taken -> WNT
    WNT taken -> WT     not taken -> SNT
    SNT taken -> WNT    not taken -> SNT

A prediction hits when the state's direction matches the actual outcome.
Fresh sites start weakly-not-taken so a first-seen branch has no bias
toward either strong state.
"""

from enum import Enum


class PredictorState(Enum):
    ST = "strongly-taken"
    WT = "weakly-taken"
    WNT = "weakly-not-taken"
    SNT = "strongly-not-taken"

    @property
    def predicts_taken(self) -> bool:
        return self in (PredictorState.ST, PredictorState.WT)


_S = PredictorState
TRANSITIONS = {
    (_S.ST, True): _S.ST,
    (_S.ST, False): _S.WT,
    (_S.WT, True): _S.ST,
    (_S.WT, False): _S.WNT,
    (_S.WNT, True): _S.WT,
    (_S.WNT, False): _S.SNT,
    (_S.SNT, True): _S.WNT,
    (_S.SNT, False): _S.SNT,
}


# The table stores each state as its index in _CODED, ordered from strongly
# not-taken to strongly taken.  _STEP[code] is ((next code, hit) if taken,
# (next code, hit) if not taken), read off TRANSITIONS and predicts_taken.
_CODED = (_S.SNT, _S.WNT, _S.WT, _S.ST)
_CODE = {state: i for i, state in enumerate(_CODED)}
_STEP = tuple(
    tuple((_CODE[TRANSITIONS[(state, taken)]], state.predicts_taken == taken)
          for taken in (True, False))
    for state in _CODED
)
# every site starts weakly not-taken
START = _CODE[_S.WNT]


def outcome_table(taken: bool, hit, miss) -> tuple:
    """For each state code, (next code, `hit` or `miss`) for one outcome:
    the update of a site and what to count, in one lookup, read off _STEP."""
    return tuple((code, hit if correct else miss)
                 for code, correct in (step[not taken] for step in _STEP))


class BranchPredictorTable:
    """Maps branch site ids to predictor states, allocating on first use."""

    def __init__(self):
        self._states = {}

    def state_of(self, site) -> PredictorState:
        return _CODED[self._states.get(site, START)]

    def predict_and_update(self, site, taken: bool) -> bool:
        """Feed one outcome; returns True when the prediction was correct."""
        states = self._states
        states[site], hit = _STEP[states.get(site, START)][not taken]
        return hit

    def reset(self) -> None:
        self._states.clear()

    def __len__(self):
        return len(self._states)


def count_bb_jump(transitions) -> int:
    """Count block transitions that actually change blocks.

    `transitions` is an iterable of (from_id, to_id) pairs from the dynamic
    block-entry sequence.  A block looping back to itself keeps locality and
    is not a jump; cyclic patterns like A,B,C,A,B,C are all jumps.
    """
    return sum(1 for frm, to in transitions if frm != to)
