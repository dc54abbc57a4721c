"""Closed-loop load generator: the Zipf user stream."""

import random

from repro.serving.loadgen import ClosedLoopLoadGenerator


def test_seeded_stream_matches_weighted_choices():
    users = [f"u{index}" for index in range(300)]
    generator = ClosedLoopLoadGenerator(users, seed=7, zipf_s=1.1)
    rng = random.Random(7)
    ranked = list(users)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ranked))]
    expected = [rng.choices(ranked, weights=weights)[0] for __ in range(2000)]
    assert [generator.next_user() for __ in range(2000)] == expected
