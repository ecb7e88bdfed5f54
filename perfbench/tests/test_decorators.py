"""Decorated and plain runs are bit-identical (perfbench_selftest, built by
`python3 perfbench/run.py --self-test` or any benchmark run)."""

import subprocess
import unittest
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[2] / ".bench_build" / "perfbench" / "perfbench_selftest"


@unittest.skipUnless(SELFTEST.exists(), "benchmark not built yet")
class Decorators(unittest.TestCase):
    def test_selftest_passes(self):
        done = subprocess.run([str(SELFTEST)], capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("decorated == plain: network barabasi_albert", done.stdout)
        self.assertIn("clamp applied behind the decorator", done.stdout)


if __name__ == "__main__":
    unittest.main()
