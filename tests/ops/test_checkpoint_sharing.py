"""A restore reproduces the live overlay's descriptor sharing exactly.

Checkpoints write each distinct descriptor *object* once and every
place that holds it as a reference, so a restored overlay must hold
the same objects in the same places: under the object transport the
nodes share descriptors (a view entry is the very object its sample
cache holds, a forwarded descriptor sits in many caches), under the
wire transport receivers decode their own copies and share nothing.
Both are pinned here as one property: the partition of every
descriptor reference (node, slot) by object identity is identical in
the live engine and in its restored twin.
"""

import pytest

from repro.core.config import SecureCyclonConfig
from repro.core.node import SecureCyclonNode
from repro.core.samples import _BY_TS
from repro.experiments.scenarios import build_secure_overlay
from repro.ops.checkpoint import restore_checkpoint, save_checkpoint

NODES = 60
CYCLES = 6


def _build(transport):
    return build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(
            view_length=8, swap_length=3, transport=transport
        ),
        malicious=6,
        attack_start=2,
        seed=23,
    )


def _references(engine):
    """``(label, descriptor)`` for every descriptor reference the engine
    holds; a label names the holder and the slot."""
    coordinators = {}
    for node_id, node in engine.nodes.items():
        holder = node_id.digest
        for index, entry in enumerate(node.view._entries):
            yield (holder, "view", index), entry.descriptor
        for creator, slot in node.sample_cache._by_creator.items():
            for ts, descriptor in slot[_BY_TS].items():
                yield (holder, "sample", creator.digest, ts), descriptor
        for index, (_, descriptor) in enumerate(
            node.redemption_cache._entries
        ):
            yield (holder, "redemption", index), descriptor
        for index, proof in enumerate(node.blacklist.proofs_tuple()):
            yield (holder, "proof", index, 0), proof.first
            yield (holder, "proof", index, 1), proof.second
        if getattr(node, "_cycle_mint", None) is not None:
            yield (holder, "mint"), node._cycle_mint
        coordinator = getattr(node, "coordinator", None)
        if coordinator is not None:
            coordinators.setdefault(id(coordinator), coordinator)
    for number, coordinator in enumerate(coordinators.values()):
        for index, descriptor in enumerate(coordinator._pool):
            yield (b"", "pool", number, index), descriptor
        for index, descriptor in enumerate(coordinator._circulating.values()):
            yield (b"", "circulating", number, index), descriptor


def _partition(engine):
    """The references grouped by object identity, as a set of groups."""
    groups = {}
    for label, descriptor in _references(engine):
        groups.setdefault(id(descriptor), set()).add(label)
    return {frozenset(group) for group in groups.values()}


def _honest_holders(engine, group):
    honest = {
        node_id.digest
        for node_id, node in engine.nodes.items()
        if type(node) is SecureCyclonNode
    }
    return {label[0] for label in group} & honest


def _view_is_sample(engine):
    """Per view entry: is it the very object its node's cache holds?"""
    return {
        (node_id.digest, index): entry.descriptor
        is node.sample_cache.get(entry.descriptor.identity)
        for node_id, node in engine.nodes.items()
        for index, entry in enumerate(node.view._entries)
    }


@pytest.mark.parametrize("transport", ["object", "wire"])
def test_restore_reproduces_the_sharing_graph(tmp_path, transport):
    live = _build(transport)
    live.run(CYCLES)
    path = save_checkpoint(live.engine, tmp_path / "sharing.ckpt")
    twin = _build(transport)
    restore_checkpoint(twin.engine, path)

    expected = _partition(live.engine)
    assert _partition(twin.engine) == expected
    assert _view_is_sample(twin.engine) == _view_is_sample(live.engine)
    assert any(_view_is_sample(live.engine).values())

    shared = [
        group
        for group in expected
        if len(_honest_holders(live.engine, group)) > 1
    ]
    if transport == "object":
        # Object mode hands the same descriptor from node to node.
        assert shared
    else:
        # Wire receivers decode their own objects: no descriptor is
        # held by two honest nodes, before or after the restore.
        assert shared == []
