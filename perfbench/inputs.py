"""Seeded input generation for the benchmark's workloads.

Every input a workload feeds the program is drawn here from the run's
--seed, so the same seed always gives the same inputs and the programs
receive only the generated files.  random.Random seeded with a string is a
fixed stream (SHA-512 seeding of the Mersenne Twister), stable across
Python 3 versions and platforms.
"""

import itertools
import random

# ba_sweep: the network_ba_1e6 registry scenario (Barabasi-Albert, N=1e6,
# attach 5, m=2) swept over beta.
BA_BASE = "network_ba_1e6"
BA_SWEEP = "params.beta=0.58:0.72:0.02"  # 8 points
BA_HORIZON = 20
BA_REPLICATIONS = 2

# hetero_reps: fully mixed, N=1e4 per-agent (alpha, beta) rules, m=10 with
# etas 0.85 plus nine at 0.35 (the mixed_baseline environment).
HETERO_BASE = "mixed_baseline"
HETERO_AGENTS = 10_000
HETERO_HORIZON = 1000
HETERO_REPLICATIONS = 96

# service_mix: single-point submissions of these registry scenarios at
# small horizons, (scenario -> (horizon, replications)), sized so that a
# point of each costs about the same (1.5-2 ms on a 4-CPU host): the mix of
# scenarios a seed draws then barely moves the totals.
SERVICE_SCENARIOS = {
    "quickstart": (150, 4),
    "mixed_baseline": (150, 8),
    "mixture-discernment": (150, 8),
    "ring": (40, 4),
    "gossip_lossy_sweep": (2, 2),
}
SERVICE_BETAS = [f"{0.56 + 0.02 * k:.2f}" for k in range(10)]
SERVICE_SEEDS_PER_POINT = 4
SERVICE_ZIPF_EXPONENT = 1.0
SERVICE_MIN_COMPUTED = 100
SERVICE_MIN_HITS = 1000


def _sub_seed(rng):
    return rng.randrange(1, 2**31)


def ba_sweep(seed):
    """Overrides, sweep axis and run shape of one ba_sweep run."""
    rng = random.Random(f"ba_sweep:{seed}")
    return {
        "base": BA_BASE,
        "overrides": [f"topology.seed={_sub_seed(rng)}"],
        "sweep": [BA_SWEEP],
        "horizon": BA_HORIZON,
        "replications": BA_REPLICATIONS,
        "seed": _sub_seed(rng),
    }


def hetero_rules(seed, agents=HETERO_AGENTS):
    """Per-agent (alpha, beta) rules: beta in [0.55, 0.95), alpha in
    [0, 1 - beta) — heterogeneous individuals that all prefer good signals
    (alpha <= beta), as in Su, Zubeldia and Lynch's bounded-memory setting."""
    rng = random.Random(f"hetero_rules:{seed}")
    rules = []
    for _ in range(agents):
        beta = round(0.55 + 0.4 * rng.random(), 6)
        alpha = round((1.0 - beta) * rng.random(), 6)
        rules.append((alpha, beta))
    return rules


def hetero_reps(seed):
    """Overrides and run shape of one hetero_reps run."""
    rng = random.Random(f"hetero_reps:{seed}")
    overrides = ["engine=agent_based", f"num_agents={HETERO_AGENTS}"]
    for i, (alpha, beta) in enumerate(hetero_rules(seed)):
        overrides.append(f"agent_rules.{i}.alpha={alpha!r}")
        overrides.append(f"agent_rules.{i}.beta={beta!r}")
    return {
        "base": HETERO_BASE,
        "overrides": overrides,
        "sweep": [],
        "horizon": HETERO_HORIZON,
        "replications": HETERO_REPLICATIONS,
        "seed": _sub_seed(rng),
    }


def service_universe(seed):
    """The distinct (scenario, beta, seed, horizon, replications) points,
    in the seed-shuffled order that fixes their Zipf ranks.  Scenarios are
    interleaved, each round of five ranks holding one point of each, so
    every seed's stream has about the same scenario mix."""
    rng = random.Random(f"service_universe:{seed}")
    per_scenario = []
    for name, (horizon, reps) in SERVICE_SCENARIOS.items():
        points = [(name, beta, _sub_seed(rng), horizon, reps)
                  for beta in SERVICE_BETAS for _ in range(SERVICE_SEEDS_PER_POINT)]
        rng.shuffle(points)
        per_scenario.append(points)
    universe = []
    for round_points in zip(*per_scenario):
        round_points = list(round_points)
        rng.shuffle(round_points)
        universe.extend(round_points)
    return universe


def service_stream(seed, min_computed=SERVICE_MIN_COMPUTED, min_hits=SERVICE_MIN_HITS):
    """A Zipf stream over service_universe(seed): draws until at least
    `min_computed` distinct points (first occurrences compute) and
    `min_hits` repeats (cache hits) have been drawn."""
    universe = service_universe(seed)
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** SERVICE_ZIPF_EXPONENT for rank in range(len(universe))))
    rng = random.Random(f"service_stream:{seed}")
    stream = []
    seen = set()
    while len(seen) < min_computed or len(stream) - len(seen) < min_hits:
        point = rng.choices(universe, cum_weights=cumulative)[0]
        stream.append(point)
        seen.add(point)
    return stream


def stream_counts(stream):
    """(computed, hits) a fresh store would see for `stream`."""
    distinct = len(set(stream))
    return distinct, len(stream) - distinct
