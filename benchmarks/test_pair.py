"""The verdict rule of ``benchmarks/pair.py`` on two recorded sets of pairs.

    python -m pytest -q benchmarks/test_pair.py
"""

import statistics

from pair import quartiles, verdict

#: EXPERIMENTS E35, ``pipeline_star`` ``cmds_per_s``: the parent's runs
#: (median 1 007, q1 994, q3 1 037) and the ten within-pair ratios.
E35_PARENT = (1005, 975, 1031, 994, 1066, 990, 1009, 1039, 994, 1050)
E35_RATIOS = (1.046, 1.128, 1.061, 1.120, 1.205, 1.055, 1.020, 1.038, 1.092, 1.069)

#: EXPERIMENTS E37, ``floor_star`` ``cmds_per_s`` of a prototype: eight wins,
#: medians 1 291 → 1 388, but the parent's own runs spread 126.
FLOOR_PARENT = (1281, 1150, 1336, 1200, 1400, 1220, 1301, 1356)
FLOOR_GAIN = 97


def test_e35_reads_as_a_gain():
    pairs = [(p, round(p * r)) for p, r in zip(E35_PARENT, E35_RATIOS)]
    q1, median, q3 = quartiles(E35_PARENT)
    assert (median, q1, q3) == (1007, 994, 1037)
    assert verdict(pairs, "higher") == "gain"
    # the same runs read the other way round are a loss, and as a lower-is-
    # better metric too
    assert verdict([(c, p) for p, c in pairs], "higher") == "loss"
    assert verdict(pairs, "lower") == "loss"
    # and no verdict at all when a run started on a box busier than its cores
    assert verdict(pairs, "higher", loads=[0.4] * 19 + [2.5], cpus=2) == "unresolved: load"
    assert verdict(pairs, "higher", loads=[2.0] * 20, cpus=2) == "gain"


def test_eight_wins_inside_the_parents_spread_are_no_gain():
    pairs = [(p, p + FLOOR_GAIN) for p in FLOOR_PARENT]
    q1, median, q3 = quartiles(FLOOR_PARENT)
    assert (median, q3 - q1) == (1291, 126)
    assert statistics.median(c for _, c in pairs) == 1388
    assert verdict(pairs, "higher") == "none"
