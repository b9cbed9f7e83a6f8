"""Unit tests for the bootstrap module."""

import random

import pytest

import repro.bootstrap
from repro.bootstrap import bootstrap_joiner, random_targets
from repro.core.config import SecureCyclonConfig
from repro.core.node import SecureCyclonNode
from repro.experiments.scenarios import build_cyclon_overlay, build_secure_overlay


def pool_random_targets(node_ids, count, exclude_index, rng):
    """Reference sampler: rebuild the pool of the other IDs, sample it."""
    exclude = node_ids[exclude_index]
    pool = [node_id for node_id in node_ids if node_id != exclude]
    return rng.sample(pool, min(count, len(pool)))


def test_random_targets_excludes_and_bounds():
    rng = random.Random(0)
    ids = list(range(10))
    targets = random_targets(ids, 5, exclude_index=3, rng=rng)
    assert len(targets) == 5
    assert 3 not in targets
    # Requesting more than available caps at the pool size.
    assert len(random_targets(ids, 50, exclude_index=3, rng=rng)) == 9


def assert_matches_pool_sampler(n, count, seed):
    ids = [f"id{i}" for i in range(n)]
    for exclude_index in sorted({0, n // 2, n - 1}):
        fast, reference = random.Random(seed), random.Random(seed)
        got = random_targets(ids, count, exclude_index, fast)
        assert got == pool_random_targets(ids, count, exclude_index, reference)
        assert fast.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_random_targets_matches_pool_sampler_small_n(seed):
    # Up to ~120 covers both branches of random.sample: the list pool
    # for populations up to its set-size threshold, the selected-set
    # loop above it.
    for n in range(1, 121):
        for count in (0, 1, 20, n + 5):
            assert_matches_pool_sampler(n, count, seed)


def test_random_targets_matches_pool_sampler_4k():
    for seed in (0, 1):
        for count in (0, 1, 20, 4005):
            assert_matches_pool_sampler(4000, count, seed)


class Incomparable:
    def __eq__(self, other):
        raise AssertionError("random_targets compared two node ids")

    __ne__ = __eq__
    __hash__ = object.__hash__


def test_random_targets_never_compares_ids():
    """A build's sampling is O(ℓ) per node: no pool of the other ids."""
    ids = [Incomparable() for _ in range(4000)]
    rng = random.Random(0)
    for exclude_index, excluded in enumerate(ids):
        targets = random_targets(ids, 20, exclude_index, rng)
        assert len(targets) == 20
        assert all(target is not excluded for target in targets)


def view_contents(overlay):
    """Per node, in engine order: the view's entries in view order."""
    return [
        (node_id, list(node.view), node.view.neighbor_ids())
        for node_id, node in overlay.engine.nodes.items()
    ]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize(
    "build", [build_secure_overlay, build_cyclon_overlay],
    ids=["secure", "cyclon"],
)
def test_overlay_build_matches_pool_sampler(monkeypatch, build, seed):
    built = view_contents(build(300, seed=seed))
    monkeypatch.setattr(repro.bootstrap, "random_targets", pool_random_targets)
    assert built == view_contents(build(300, seed=seed))
    for node_id, entries, neighbor_ids in built:
        assert len(entries) == 20
        assert node_id not in neighbor_ids


def make_joiner(engine, name):
    keypair = engine.registry.new_keypair(engine.rng_hub.stream(name))
    node = SecureCyclonNode(
        keypair=keypair,
        address=engine.network.reserve_address(keypair.public),
        config=SecureCyclonConfig(view_length=6, swap_length=3),
        clock=engine.clock,
        registry=engine.registry,
        rng=engine.rng_hub.stream(f"{name}-rng"),
    )
    return node


def test_joiner_acquires_valid_owned_links():
    overlay = build_secure_overlay(
        n=20, config=SecureCyclonConfig(view_length=6, swap_length=3), seed=71
    )
    overlay.run(3)
    engine = overlay.engine
    joiner = make_joiner(engine, "j")
    acquired = bootstrap_joiner(
        joiner, engine.legit_nodes(), links=3, rng=random.Random(1)
    )
    assert acquired == 3
    for entry in joiner.view:
        assert entry.descriptor.current_owner == joiner.node_id
        assert not entry.non_swappable  # the joiner's links are real


def test_joiner_with_no_donors():
    overlay = build_secure_overlay(
        n=5, config=SecureCyclonConfig(view_length=3, swap_length=2), seed=71
    )
    engine = overlay.engine
    joiner = make_joiner(engine, "j2")
    assert bootstrap_joiner(joiner, [], links=3, rng=random.Random(1)) == 0
    assert len(joiner.view) == 0


def test_donated_links_remain_usable_for_gossip():
    """The joiner can actually redeem a donated token."""
    overlay = build_secure_overlay(
        n=20, config=SecureCyclonConfig(view_length=6, swap_length=3), seed=72
    )
    overlay.run(3)
    engine = overlay.engine
    joiner = make_joiner(engine, "j3")
    joiner.bind_network(engine.network)
    bootstrap_joiner(joiner, engine.legit_nodes(), links=3, rng=random.Random(2))
    engine.add_node(joiner)
    joiner.begin_cycle(engine.clock.cycle)
    joiner.run_cycle(engine.network)  # must not raise; view refreshes
    assert len(joiner.view) >= 3
