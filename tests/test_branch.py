from hypothesis import given, settings, strategies as st

from irtime import BranchPredictorTable, PredictorState, count_bb_jump, trace
from irtime.branch import _CODED, START, TRANSITIONS


def test_transition_table_is_exact():
    ST, WT, WNT, SNT = (PredictorState.ST, PredictorState.WT,
                        PredictorState.WNT, PredictorState.SNT)
    assert TRANSITIONS == {
        (ST, True): ST, (ST, False): WT,
        (WT, True): ST, (WT, False): WNT,
        (WNT, True): WT, (WNT, False): SNT,
        (SNT, True): WNT, (SNT, False): SNT,
    }


def test_prediction_direction():
    assert PredictorState.ST.predicts_taken
    assert PredictorState.WT.predicts_taken
    assert not PredictorState.WNT.predicts_taken
    assert not PredictorState.SNT.predicts_taken


def test_loop_nine_taken_one_not():
    # outcome sequence of a 10-iteration loop back edge, starting at WNT:
    # T is mispredicted once, then hits until the final NT misses.
    table = BranchPredictorTable()
    outcomes = [True] * 9 + [False]
    hits = sum(1 for o in outcomes if table.predict_and_update(0, o))
    assert hits == 8
    assert len(outcomes) - hits == 2


def test_saturation():
    table = BranchPredictorTable()
    for _ in range(50):
        table.predict_and_update(1, True)
    assert table.state_of(1) == PredictorState.ST
    for _ in range(50):
        table.predict_and_update(1, False)
    assert table.state_of(1) == PredictorState.SNT


def test_default_initial_state_is_wnt():
    table = BranchPredictorTable()
    assert table.state_of(123) == PredictorState.WNT
    # first taken outcome is therefore a miss
    assert table.predict_and_update(123, True) is False


def test_sites_are_independent():
    table = BranchPredictorTable()
    for _ in range(4):
        table.predict_and_update(0, True)
    assert table.state_of(0) == PredictorState.ST
    assert table.state_of(1) == PredictorState.WNT
    # training site 0 does not help site 1
    assert table.predict_and_update(1, True) is False


def test_alternating_pattern_from_wnt():
    table = BranchPredictorTable()
    hits = [table.predict_and_update(0, o)
            for o in (True, False, True, False)]
    # WNT->WT(miss), WT predicts T but sees NT (miss) ->WNT,
    # WNT predicts NT but sees T (miss) ->WT, WT predicts T sees NT (miss)
    assert hits == [False, False, False, False]


def test_reset():
    table = BranchPredictorTable()
    table.predict_and_update(0, True)
    table.predict_and_update(0, True)
    table.reset()
    assert len(table) == 0
    assert table.state_of(0) == PredictorState.WNT


def test_bb_jump_counting():
    # self-transitions contribute nothing
    assert count_bb_jump([(3, 3)] * 5) == 0
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    assert count_bb_jump(cycle) == 6
    mixed = [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert count_bb_jump(mixed) == 2
    assert count_bb_jump([]) == 0


def test_inline_outcome_tables_follow_the_transitions():
    # the tables the generated code updates each site's state code through
    assert _CODED[START] is PredictorState.WNT
    for code, state in enumerate(_CODED):
        for outcome, table in ((True, trace.TAKEN), (False, trace.NOT_TAKEN)):
            next_code, slot = table[code]
            assert _CODED[next_code] is TRANSITIONS[(state, outcome)], (state, outcome)
            assert slot == (trace.BR_HIT if state.predicts_taken == outcome
                            else trace.BR_MISS), (state, outcome)
    # the generated code skips the update of a site in its outcome's fixed
    # state: the one state that outcome leaves unchanged with a hit
    for outcome, fixed in ((True, trace.TAKEN_FIXED), (False, trace.NOT_TAKEN_FIXED)):
        unchanged = [code for code, state in enumerate(_CODED)
                     if TRANSITIONS[(state, outcome)] is state
                     and state.predicts_taken == outcome]
        assert unchanged == [fixed], outcome
    assert _CODED[trace.TAKEN_FIXED] is PredictorState.ST
    assert _CODED[trace.NOT_TAKEN_FIXED] is PredictorState.SNT


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(st.tuples(st.integers(0, 4),
                                 st.one_of(st.booleans(), st.sampled_from([0, 1, 2]))),
                       max_size=60))
def test_table_matches_a_walk_over_transitions(stream):
    # `taken` may be any truthy or falsy value; the walk reads it as a bool
    table = BranchPredictorTable()
    walk = {}
    for site, taken in stream:
        state = walk.get(site, PredictorState.WNT)
        predicted = state in (PredictorState.ST, PredictorState.WT)
        walk[site] = TRANSITIONS[(state, bool(taken))]
        assert table.predict_and_update(site, taken) is (predicted == bool(taken))
    for site in range(5):
        assert table.state_of(site) is walk.get(site, PredictorState.WNT)
    assert len(table) == len(walk)
