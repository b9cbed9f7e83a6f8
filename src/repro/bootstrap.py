"""Overlay bootstrapping.

The paper's experiments start from "an initialization phase, where the
overlay was let emerge to a random-graph-like overlay" (§VI).  These
helpers construct that starting point directly — a random directed
graph with outdegree ℓ — and then let a short warm-up run of the
protocol finish the mixing.

For SecureCyclon the initial views must be *owned* descriptors with
valid chains and an honest minting history, so each node backdates its
bootstrap descriptors one per past cycle: exactly what an honest node
that had been running for a while would have produced.

Joining nodes follow §V-A: a handful of bootstrap peers each donate one
owned descriptor to the joiner (a genuine ownership transfer) and keep
a non-swappable copy for themselves.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.descriptor import mint
from repro.core.node import SecureCyclonNode
from repro.cyclon.descriptor import CyclonDescriptor
from repro.cyclon.node import CyclonNode


def random_targets(
    node_ids: Sequence, count: int, exclude_index: int, rng
) -> List:
    """``count`` distinct random IDs from ``node_ids``, excluding the one
    at position ``exclude_index``.

    ``rng.sample`` draws only indices below its population's length, so
    sampling ``range(n - 1)`` and shifting every index at or past
    ``exclude_index`` up by one returns the same IDs, and leaves ``rng``
    in the same state, as sampling a pool of the other ``n - 1`` IDs —
    without building that pool, so a call costs O(count), not O(n).

    The bootstrappers pass ``node_ids = list(nodes)`` and the index
    from ``enumerate(nodes.values())``: a dict yields its keys and
    values in the same order, so the index is the node's own position.
    """
    others = len(node_ids) - 1
    picks = rng.sample(range(others), min(count, others))
    return [node_ids[i + (i >= exclude_index)] for i in picks]


def bootstrap_cyclon(nodes: Dict, view_length: int, rng) -> None:
    """Fill every Cyclon node's view with random neighbors.

    Ages are spread uniformly over ``[0, view_length)`` to mimic the
    steady-state age distribution, so the first cycles behave like a
    converged overlay rather than a synchronized burst.
    """
    node_ids = list(nodes)
    for index, node in enumerate(nodes.values()):
        for target_id in random_targets(node_ids, view_length, index, rng):
            target = nodes[target_id]
            descriptor = CyclonDescriptor(
                node_id=target.node_id,
                address=target.address,
                age=rng.randrange(view_length),
            )
            node.view.insert(descriptor)


def bootstrap_secure(nodes: Dict, view_length: int, rng) -> None:
    """Fill every SecureCyclon node's view with owned descriptors.

    For each (holder, target) edge of a random outdegree-ℓ graph, the
    target mints a descriptor backdated to a distinct past cycle and
    transfers it to the holder.  Backdating one mint per past cycle per
    target keeps the frequency invariant intact: the bootstrap is
    indistinguishable from an honest execution history.
    """
    node_ids = list(nodes)
    mints_so_far: Dict = {node_id: 0 for node_id in node_ids}
    for index, node in enumerate(nodes.values()):
        for target_id in random_targets(node_ids, view_length, index, rng):
            target = nodes[target_id]
            mints_so_far[target_id] += 1
            backdate_cycles = mints_so_far[target_id]
            timestamp = -backdate_cycles * target.clock.period_seconds
            descriptor = mint(target.keypair, target.address, timestamp)
            owned = descriptor.transfer(target.keypair, node.node_id)
            node.view.insert(owned)


def bootstrap_joiner(
    joiner: SecureCyclonNode,
    donors: Sequence[SecureCyclonNode],
    links: int,
    rng,
) -> int:
    """§V-A join: ``links`` donors each hand the joiner one descriptor.

    Each donor transfers ownership of a random swappable view entry to
    the joiner and keeps a non-swappable copy for itself (the sanctioned
    self-repair).  Returns the number of links actually acquired.
    """
    acquired = 0
    donor_pool = [d for d in donors if d.node_id != joiner.node_id]
    rng.shuffle(donor_pool)
    for donor in donor_pool:
        if acquired >= links:
            break
        entry = donor.view.pop_one_random_swappable(rng)
        if entry is None:
            continue
        if entry.descriptor.creator == joiner.node_id:
            # Useless to the joiner (self-link); give it back.
            donor.view.insert(entry.descriptor, non_swappable=entry.non_swappable)
            continue
        transferred = entry.descriptor.transfer(donor.keypair, joiner.node_id)
        if joiner.view.insert(transferred):
            acquired += 1
            donor.view.insert(entry.descriptor, non_swappable=True)
        else:
            donor.view.insert(
                entry.descriptor, non_swappable=entry.non_swappable
            )
    return acquired
