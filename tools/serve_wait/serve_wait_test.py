#!/usr/bin/env python3
"""Self-test for serve_wait: key decoding, the backlog/runner-wait split of
the slowest requests, busiest centers, runner busy bins, and the exit code
on a malformed dump — all on a synthetic span dump with a known answer."""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import serve_wait  # noqa: E402

TICKS = 10  # per center; ticks 0-1 are warm-up and absent from the dump
CENTERS = 2


def dump(slow_center=1, slow_tick=5):
    """Every batch seals at 10 ms x tick and runs its 1 ms tick at once,
    except the slow one: sealed at its slot, its center's previous batch
    answered 6 ms later, its tick starts 4 ms after that and runs 10 ms."""
    events = []

    def span(name, key, start, dur):
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start * 1e3, "dur": dur * 1e3,
                       "args": {"id": len(events) + 1, "parent": 0,
                                "key": key}})

    for c in range(CENTERS):
        for t in range(2, TICKS):
            key = c * TICKS + t
            seal = 10.0 * t
            begin, dur = seal, 1.0
            if (c, t) == (slow_center, slow_tick - 1):
                dur = 16.0  # answered at seal + 16, 6 ms into the next slot
            if (c, t) == (slow_center, slow_tick):
                begin, dur = seal + 10.0, 10.0
            span("serve.batch", key, seal, begin + dur - seal)
            span("stream.tick", key, begin, dur)
            span("serve.submit", key, seal - 0.01, 0.01)
    return {"traceEvents": events}


class ServeWaitTest(unittest.TestCase):
    def analyse(self, **kw):
        spans = {}
        for ev in dump(**kw)["traceEvents"]:
            start = ev["ts"] / 1e3
            spans.setdefault(ev["name"], []).append(
                (ev["args"]["key"], start, start + ev["dur"] / 1e3))
        return serve_wait.analyse(spans, runners=2, bin_ms=10.0,
                                  window_ticks=8)

    def test_infers_ticks_from_the_warm_up_gap(self):
        keys = [c * TICKS + t for c in range(CENTERS) for t in range(2, 10)]
        self.assertEqual(serve_wait.infer_ticks(keys), TICKS)
        with self.assertRaises(serve_wait.DumpError):
            serve_wait.infer_ticks(list(range(5)) + [7, 8])

    def test_slowest_request_split(self):
        result = self.analyse()
        self.assertEqual(result["ticks"], TICKS)
        self.assertEqual(result["centers"], CENTERS)
        [win] = result["windows"]
        self.assertEqual((win["first_tick"], win["last_tick"]), (2, 9))
        self.assertEqual(win["requests"], 16)
        self.assertEqual(win["slow"], 1)
        self.assertAlmostEqual(win["p99_ms"], 20.01)
        self.assertAlmostEqual(win["backlog_ms"], 6.0)
        self.assertAlmostEqual(win["runner_wait_ms"], 4.0)
        self.assertAlmostEqual(win["tick_ms"], 10.0)
        self.assertEqual(win["busiest"], [(1, 1)])

    def test_busy_bins(self):
        [win] = self.analyse()["windows"]
        # Bins start at the first submit (19.99 ms). Center 0 runs 1 ms per
        # 10 ms slot; center 1 runs 16 ms from 40 ms and 10 ms from 60 ms.
        self.assertEqual(len(win["bins"]), 8)
        self.assertAlmostEqual(win["bins"][0], 2.0 / 20)
        self.assertAlmostEqual(win["bins"][2], (1.0 + 9.99) / 20)
        self.assertAlmostEqual(win["bins"][3], (1.0 + 6.01) / 20)
        self.assertAlmostEqual(win["bins"][4], (2.0 + 9.99) / 20)
        self.assertEqual(win["saturated_bins"], 0)

    def test_saturated_runs(self):
        spans = {"serve.batch": [], "stream.tick": [], "serve.submit": []}
        for t in range(2, 8):  # two runners busy back to back 20-80 ms
            for c in range(CENTERS):
                key = c * TICKS + t
                spans["serve.batch"].append((key, 10.0 * t, 10.0 * t + 10))
                spans["stream.tick"].append((key, 10.0 * t, 10.0 * t + 10))
                spans["serve.submit"].append((key, 10.0 * t, 10.0 * t))
        [win] = serve_wait.analyse(spans, runners=2, bin_ms=10.0,
                                   window_ticks=8, ticks=TICKS)["windows"]
        self.assertEqual(win["bins"], [1.0] * 6)
        self.assertEqual(win["longest_saturated"], 6)

    def test_cli_prints_report_and_rejects_malformed_dumps(self):
        # The CLI takes only the dump and analyses it with perfbench's
        # shape; the synthetic dump's 8 measured ticks make one window.
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            with open(good, "w") as f:
                json.dump(dump(), f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = serve_wait.main([good])
            self.assertEqual(code, 0)
            self.assertIn("2 centers, 10 ticks per center, 3 runners, "
                          "20 ms bins", out.getvalue())
            self.assertIn("own-shard backlog 6.00 + runner wait 4.00 ms",
                          out.getvalue())
            self.assertIn("centers c1:1", out.getvalue())
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w") as f:
                json.dump({"traceEvents": [{"name": "serve.batch"}]}, f)
            self.assertEqual(serve_wait.main([bad]), 2)


if __name__ == "__main__":
    unittest.main()
