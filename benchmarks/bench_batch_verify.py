"""Micro-benchmark: the batched verification kernel vs the sequential walk.

Two workloads, both dominated by chain verification and nothing else:

* **cold** — a batch of wire-rebuilt chains nobody has verified yet
  (object memos fresh, prefix-trust cache cleared).  This prices the
  flat-buffer MAC kernel itself against per-descriptor
  ``verify_descriptor`` calls over the same chains.

* **fanout** — the network-wide dedup scenario the plan exists for:
  ``receivers`` nodes each receive their own wire-rebuilt copy of the
  same message within one cycle.  Sequential verification re-walks
  every copy per receiver; the shared plan MAC-checks each distinct
  chain once and answers the rest from its verdict memo.  Each round
  starts from a fresh plan, so no round rides an earlier round's memo.

Used three ways: standalone (``PYTHONPATH=src python
benchmarks/bench_batch_verify.py``), imported by
``benchmarks/baseline.py`` to record ``BENCH_core.json`` entries, and
re-timed by ``scripts/check.sh`` against the recorded numbers under
the perf-regression budget.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.core.descriptor import (
    OwnershipHop,
    SecureDescriptor,
    mint,
    verify_descriptor,
)
from repro.crypto.batch import VerificationPlan
from repro.crypto.registry import KeyRegistry
from repro.crypto.signing import Signature
from repro.sim.network import NetworkAddress

_ADDRESS = NetworkAddress(host=1, port=1)


def _rebuild(descriptor: SecureDescriptor) -> SecureDescriptor:
    """Wire-fidelity copy: same content, fresh objects and memos."""
    hops = tuple(
        OwnershipHop(
            owner=hop.owner,
            kind=hop.kind,
            signature=Signature(
                signer=hop.signature.signer, mac=hop.signature.mac
            ),
        )
        for hop in descriptor.hops
    )
    return SecureDescriptor(
        creator=descriptor.creator,
        address=descriptor.address,
        timestamp=descriptor.timestamp,
        hops=hops,
    )


def _build_chains(registry: KeyRegistry, count: int, hops: int) -> list:
    rng = random.Random(0)
    keypairs = [registry.new_keypair(rng) for _ in range(max(hops + 1, 8))]
    chains = []
    for index in range(count):
        descriptor = mint(
            keypairs[index % len(keypairs)], _ADDRESS, float(index * 10)
        )
        holder = keypairs[index % len(keypairs)]
        for step in range(hops):
            nxt = keypairs[(index + step + 1) % len(keypairs)]
            descriptor = descriptor.transfer(holder, nxt.public)
            holder = nxt
        chains.append(descriptor)
    return chains


def bench_cold(
    batch_size: int = 64, hops: int = 6, rounds: int = 40
) -> dict:
    """Cold verification: per-chain µs, sequential vs batched kernel."""
    registry = KeyRegistry()
    chains = _build_chains(registry, batch_size, hops)
    # Pre-rebuild every round's copies so object construction is not
    # part of the timed region on either side.
    seq_rounds = [[_rebuild(c) for c in chains] for _ in range(rounds)]
    bat_rounds = [[_rebuild(c) for c in chains] for _ in range(rounds)]

    start = time.perf_counter()
    for batch in seq_rounds:
        registry.trusted_chain_digests.clear()
        for descriptor in batch:
            if not verify_descriptor(descriptor, registry):
                raise AssertionError("honest chain failed")
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    for batch in bat_rounds:
        registry.trusted_chain_digests.clear()
        plan = VerificationPlan(registry)  # cold: no memo from earlier rounds
        if not all(plan.verify_batch(batch)):
            raise AssertionError("honest chain failed")
    batched_s = time.perf_counter() - start

    per_chain = rounds * batch_size
    return {
        "batch_size": batch_size,
        "hops": hops,
        "sequential_us_per_chain": round(sequential_s / per_chain * 1e6, 3),
        "batched_us_per_chain": round(batched_s / per_chain * 1e6, 3),
        "speedup": round(sequential_s / batched_s, 2),
    }


def bench_fanout(
    receivers: int = 25, batch_size: int = 25, hops: int = 6, rounds: int = 20
) -> dict:
    """One cycle's message fan-out: every receiver re-verifies the same
    chains sequentially; the shared plan checks each chain once."""
    registry = KeyRegistry()
    chains = _build_chains(registry, batch_size, hops)
    seq_rounds = [
        [[_rebuild(c) for c in chains] for _ in range(receivers)]
        for _ in range(rounds)
    ]
    bat_rounds = [
        [[_rebuild(c) for c in chains] for _ in range(receivers)]
        for _ in range(rounds)
    ]

    start = time.perf_counter()
    for deliveries in seq_rounds:
        registry.trusted_chain_digests.clear()
        for batch in deliveries:
            for descriptor in batch:
                verify_descriptor(descriptor, registry)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    for deliveries in bat_rounds:
        registry.trusted_chain_digests.clear()
        plan = VerificationPlan(registry)
        for batch in deliveries:
            plan.verify_batch(batch)
    batched_s = time.perf_counter() - start

    per_sighting = rounds * receivers * batch_size
    return {
        "receivers": receivers,
        "batch_size": batch_size,
        "hops": hops,
        "sequential_us_per_sighting": round(
            sequential_s / per_sighting * 1e6, 3
        ),
        "batched_us_per_sighting": round(batched_s / per_sighting * 1e6, 3),
        "speedup": round(sequential_s / batched_s, 2),
    }


def run_all() -> dict:
    return {"cold": bench_cold(), "fanout": bench_fanout()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    cold = bench_cold(rounds=args.rounds)
    fanout = bench_fanout(rounds=max(args.rounds // 2, 5))
    print(
        "cold   : sequential {sequential_us_per_chain:7.2f} us/chain | "
        "batched {batched_us_per_chain:7.2f} us/chain | x{speedup}".format(
            **cold
        )
    )
    print(
        "fanout : sequential {sequential_us_per_sighting:7.2f} us/sighting | "
        "batched {batched_us_per_sighting:7.2f} us/sighting | x{speedup}".format(
            **fanout
        )
    )


if __name__ == "__main__":
    main()
