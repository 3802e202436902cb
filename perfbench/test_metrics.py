"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest
from pathlib import Path

import metrics

PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
COLD_KEY = "g721-enc-s2001-n20000-sched-bimodal-asbr-bit16-mem_end-frun"


def cell(key=COLD_KEY, committed=70281210, folded=5252156, ff=0,
         iss=75533366, cycles=78013855, mispredicts=728583):
    return {
        "key": key, "asbr": True, "sampled": False, "ok": True,
        "valid": True, "iss_instructions": iss,
        "counters": {
            "pipeline.cycles": cycles, "pipeline.committed": committed,
            "pipeline.folded_branches": folded,
            "pipeline.mispredicts": mispredicts,
            "sim.fast_forward_instructions": ff,
        },
    }


class PercentileRuleTest(unittest.TestCase):
    def test_small_samples_report_only_the_median(self):
        out = metrics.percentile_rule([3.0, 1.0, 2.0])
        self.assertEqual(out["median"], 2.0)
        self.assertEqual(out["n"], 3)
        self.assertIsNone(out["pct"])

    def test_needs_ten_samples_beyond(self):
        # n=39: p75 is rank 30 with 9 beyond, so nothing qualifies.
        self.assertIsNone(metrics.percentile_rule(list(range(39)))["pct"])
        # n=40: p75 is rank 30 with exactly 10 beyond.
        out = metrics.percentile_rule([float(i) for i in range(1, 41)])
        self.assertEqual((out["pct"], out["pct_value"]), (75.0, 30.0))

    def test_picks_the_highest_qualifying_percentile(self):
        samples = [float(i) for i in range(1, 1001)]
        out = metrics.percentile_rule(samples)
        self.assertEqual((out["pct"], out["pct_value"]), (99.0, 990.0))
        out = metrics.percentile_rule(samples[:200])
        self.assertEqual((out["pct"], out["pct_value"]), (95.0, 190.0))

    def test_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            metrics.percentile_rule([])


class PinCheckerTest(unittest.TestCase):
    def raw(self, cells, seed=metrics.DEFAULT_SEED, replays=()):
        spans = [{"name": "bp.replay", "attrs": attrs} for attrs in replays]
        return {"seed": seed, "cells": cells, "spans": spans}

    def error_rate(self, raw, pins=PINS):
        attempted, failures = metrics.check(raw, pins)
        return len(failures) / attempted

    def test_pins_hold_the_roadmap_anchors(self):
        self.assertEqual(PINS["cells"][COLD_KEY]["cycles"], 78013855)
        base = "adpcm-enc-s2001-n100000-sched-bimodal-base-fsweep"
        self.assertEqual(PINS["cells"][base]["cycles"], 11848955)

    def test_matching_cell_passes(self):
        self.assertEqual(self.error_rate(self.raw([cell()])), 0.0)

    def test_perturbed_pin_raises_error_rate(self):
        pins = copy.deepcopy(PINS)
        pins["cells"][COLD_KEY]["mispredicts"] += 1
        self.assertEqual(self.error_rate(self.raw([cell(), cell()]), pins),
                         1.0)

    def test_changed_statistic_fails(self):
        raw = self.raw([cell(), cell(cycles=78013856)])
        self.assertEqual(self.error_rate(raw), 0.5)

    def test_default_seed_needs_a_pin(self):
        raw = self.raw([cell(key="unpinned")])
        self.assertEqual(self.error_rate(raw), 1.0)

    def test_other_seeds_check_iss_instructions_only(self):
        raw = self.raw([cell(key="unpinned", cycles=1)], seed=7)
        self.assertEqual(self.error_rate(raw), 0.0)
        raw = self.raw([cell(key="unpinned", committed=1)], seed=7)
        self.assertEqual(self.error_rate(raw), 1.0)

    def test_sampled_cells_count_fast_forwarded_instructions(self):
        raw = self.raw([cell(key="s", committed=1000, folded=10, ff=2000,
                             iss=3010)], seed=7)
        self.assertEqual(self.error_rate(raw), 0.0)

    def test_failed_and_invalid_cells_count(self):
        failed = cell()
        failed["ok"] = False
        invalid = cell()
        invalid["valid"] = False
        self.assertEqual(self.error_rate(self.raw([failed, invalid, cell()])),
                         2 / 3)

    def test_replay_pin(self):
        key = "tage@adpcm-enc-s2001-n100000"
        token, stream = key.split("@")
        replay = dict(PINS["replays"][key], token=token, stream=stream)
        self.assertEqual(self.error_rate(self.raw([], replays=[replay])), 0.0)
        replay["correct"] += 1
        self.assertEqual(self.error_rate(self.raw([], replays=[replay])), 1.0)
        self.assertEqual(
            self.error_rate(self.raw([], seed=7, replays=[replay])), 0.0)


def span(id_, name, parent, start, end, op=1):
    return {"id": id_, "name": name, "parent": parent, "op": op,
            "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span(1, "op", 0, 0.0, 10.0),
            span(2, "setup", 1, 0.0, 4.0),
            span(3, "driver.prepare", 2, 0.5, 1.0),
            span(4, "profile.iss", 2, 1.0, 3.0),
            span(5, "pass", 1, 4.0, 9.0),
            # Two parallel workers: overlapping children count once.
            span(6, "sim.run_one", 5, 4.0, 8.0),
            span(7, "sim.run_one", 5, 5.0, 8.5),
            span(8, "report.emit", 6, 7.5, 8.0),
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 1.0)   # 10 - setup 4 - pass 5
        self.assertAlmostEqual(selfs[2], 1.5)   # 4 - 0.5 - 2
        self.assertAlmostEqual(selfs[3], 0.5)
        self.assertAlmostEqual(selfs[5], 0.5)   # 5 - union [4, 8.5]
        self.assertAlmostEqual(selfs[6], 3.5)
        self.assertAlmostEqual(selfs[8], 0.5)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(
            metrics.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0),
            3.0)


if __name__ == "__main__":
    unittest.main()
