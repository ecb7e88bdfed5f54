"""The generated inputs: deterministic per seed, and the service stream
reaches the stated counts of computed points and cache hits."""

import unittest

import inputs


class ServiceStream(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(inputs.service_stream(7), inputs.service_stream(7))

    def test_seeds_give_different_streams(self):
        self.assertNotEqual(inputs.service_stream(7), inputs.service_stream(8))

    def test_counts_reached_on_every_seed(self):
        for seed in range(1, 31):
            computed, hits = inputs.stream_counts(inputs.service_stream(seed))
            self.assertGreaterEqual(computed, inputs.SERVICE_MIN_COMPUTED, seed)
            self.assertGreaterEqual(hits, inputs.SERVICE_MIN_HITS, seed)

    def test_stream_draws_from_the_universe(self):
        universe = inputs.service_universe(3)
        self.assertEqual(len(set(universe)), len(universe))
        self.assertTrue(set(inputs.service_stream(3)) <= set(universe))
        names = {point[0] for point in universe}
        self.assertEqual(names, set(inputs.SERVICE_SCENARIOS))

    def test_zipf_head_dominates(self):
        stream = inputs.service_stream(5)
        universe = inputs.service_universe(5)
        head = sum(1 for point in stream if point in set(universe[:10]))
        tail = sum(1 for point in stream if point in set(universe[-10:]))
        self.assertGreater(head, 5 * tail)


class BatchInputs(unittest.TestCase):
    def test_hetero_rules_deterministic_and_valid(self):
        rules = inputs.hetero_rules(11, agents=2000)
        self.assertEqual(rules, inputs.hetero_rules(11, agents=2000))
        self.assertNotEqual(rules, inputs.hetero_rules(12, agents=2000))
        for alpha, beta in rules:
            self.assertTrue(0.0 <= alpha <= beta <= 1.0)
            self.assertGreaterEqual(beta, 0.55)

    def test_hetero_overrides_cover_every_agent(self):
        spec = inputs.hetero_reps(2)
        rules = [line for line in spec["overrides"] if line.startswith("agent_rules.")]
        self.assertEqual(len(rules), 2 * inputs.HETERO_AGENTS)
        self.assertIn(f"num_agents={inputs.HETERO_AGENTS}", spec["overrides"])

    def test_ba_sweep_deterministic(self):
        self.assertEqual(inputs.ba_sweep(4), inputs.ba_sweep(4))
        self.assertNotEqual(inputs.ba_sweep(4)["overrides"], inputs.ba_sweep(5)["overrides"])


if __name__ == "__main__":
    unittest.main()
