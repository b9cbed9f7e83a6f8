"""Unit tests for the SecureCyclon view."""

import random

import pytest

from repro.core.view import SecureView


@pytest.fixture
def view(keypairs):
    return SecureView(owner_id=keypairs[4].public, capacity=4)


def owned(minted, keypairs, creator, holder=4, timestamp=0.0):
    return minted(creator, timestamp).transfer(
        keypairs[creator], keypairs[holder].public
    )


def test_insert_and_capacity(view, minted, keypairs):
    for i, stamp in enumerate((0.0, 10.0, 20.0, 30.0, 40.0)):
        view.insert(owned(minted, keypairs, creator=i % 3, timestamp=stamp))
    assert len(view) == 4
    assert view.free_slots == 0


def test_self_created_rejected(view, minted, keypairs):
    d = minted(4).transfer(keypairs[4], keypairs[0].public)
    assert not view.insert(d)


def test_same_identity_not_duplicated(view, minted, keypairs):
    d = owned(minted, keypairs, creator=0)
    assert view.insert(d)
    assert not view.insert(d)
    assert len(view) == 1


def test_two_tokens_of_same_creator_coexist(view, minted, keypairs):
    a = owned(minted, keypairs, creator=0, timestamp=0.0)
    b = owned(minted, keypairs, creator=0, timestamp=10.0)
    assert view.insert(a)
    assert view.insert(b)
    assert len(view) == 2


def test_swappable_upgrade_over_nonswappable(view, minted, keypairs):
    d = owned(minted, keypairs, creator=0)
    assert view.insert(d, non_swappable=True)
    assert view.non_swappable_count() == 1
    assert view.insert(d, non_swappable=False)
    assert view.non_swappable_count() == 0
    assert len(view) == 1
    # No downgrade in the other direction.
    assert not view.insert(d, non_swappable=True)
    assert view.non_swappable_count() == 0


def test_oldest_is_min_timestamp(view, minted, keypairs):
    view.insert(owned(minted, keypairs, creator=0, timestamp=30.0))
    view.insert(owned(minted, keypairs, creator=1, timestamp=10.0))
    view.insert(owned(minted, keypairs, creator=2, timestamp=20.0))
    assert view.oldest().timestamp == 10.0


def test_pop_random_swappable_skips_non_swappable(view, minted, keypairs):
    view.insert(owned(minted, keypairs, creator=0), non_swappable=True)
    view.insert(owned(minted, keypairs, creator=1))
    popped = view.pop_random_swappable(5, random.Random(0))
    assert len(popped) == 1
    assert popped[0].creator == keypairs[1].public
    assert view.non_swappable_count() == 1


def test_pop_random_swappable_exclude_creator(view, minted, keypairs):
    view.insert(owned(minted, keypairs, creator=0))
    view.insert(owned(minted, keypairs, creator=1))
    popped = view.pop_random_swappable(
        5, random.Random(0), exclude_creator=keypairs[0].public
    )
    assert [entry.creator for entry in popped] == [keypairs[1].public]


def test_purge_creator(view, minted, keypairs):
    view.insert(owned(minted, keypairs, creator=0, timestamp=0.0))
    view.insert(owned(minted, keypairs, creator=0, timestamp=10.0))
    view.insert(owned(minted, keypairs, creator=1))
    assert view.purge_creator(keypairs[0].public) == 2
    assert len(view) == 1


def test_remove_identity(view, minted, keypairs):
    d = owned(minted, keypairs, creator=0)
    view.insert(d)
    entry = view.remove_identity(d.identity)
    assert entry is not None and entry.descriptor is d
    assert view.remove_identity(d.identity) is None


def test_remove_entry(view, minted, keypairs):
    d = owned(minted, keypairs, creator=0)
    view.insert(d)
    entry = view.entry_for_creator(keypairs[0].public)
    assert view.remove_entry(entry)
    assert not view.remove_entry(entry)


def test_neighbor_ids_and_lookup(view, minted, keypairs):
    view.insert(owned(minted, keypairs, creator=0))
    view.insert(owned(minted, keypairs, creator=1))
    assert set(view.neighbor_ids()) == {
        keypairs[0].public,
        keypairs[1].public,
    }
    assert view.contains_creator(keypairs[0].public)
    assert not view.contains_creator(keypairs[2].public)


def test_invalid_capacity(keypairs):
    with pytest.raises(ValueError):
        SecureView(owner_id=keypairs[0].public, capacity=0)
