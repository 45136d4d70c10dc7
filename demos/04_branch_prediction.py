"""Drive the two-bit predictor through classic branch patterns.

Each branch site owns a four-state saturating counter (ST, WT, WNT, SNT)
starting at WNT.  Loops are cheap to predict; alternation is the worst
case because the counter keeps changing its mind.
"""

from irtime import BranchPredictorTable, count_bb_jump


def score(pattern):
    table = BranchPredictorTable()
    hits = sum(table.predict_and_update("site", taken) for taken in pattern)
    return hits, len(pattern) - hits


def main():
    loop = [True] * 9 + [False]
    hits, misses = score(loop)
    print(f"10-iteration loop:    {hits} hits, {misses} misses")

    hits, misses = score([True] * 99 + [False])
    print(f"100-iteration loop:   {hits} hits, {misses} misses")

    hits, misses = score([True, False] * 50)
    print(f"alternating pattern:  {hits} hits, {misses} misses")

    hits, misses = score([False] * 100)
    print(f"never-taken branch:   {hits} hits, {misses} misses")
    print()

    # block jumps count transitions in the global entry sequence;
    # staying in the same block is free
    inner = ["loop"] * 5
    walk = ["entry"] + inner + ["exit", "entry"] + inner + ["exit"]
    transitions = list(zip(walk, walk[1:]))
    print(f"entry sequence {walk}")
    print(f"bb_jump = {count_bb_jump(transitions)}")


if __name__ == "__main__":
    main()
