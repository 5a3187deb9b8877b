"""Tests for merkle trees, the provable store, and proofs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tendermint.crypto import sha256
from repro.tendermint.merkle import (
    EMPTY_HASH,
    NonMembershipProof,
    ProvableStore,
    simple_hash_from_byte_slices,
    verify_membership,
    verify_non_membership,
)


def test_empty_root():
    assert simple_hash_from_byte_slices([]) == EMPTY_HASH


def test_single_leaf_is_domain_separated():
    # Leaf hash must not equal a bare sha256 (RFC 6962 prefixing).
    assert simple_hash_from_byte_slices([b"x"]) != sha256(b"x")


def test_root_changes_with_any_item():
    base = simple_hash_from_byte_slices([b"a", b"b", b"c"])
    assert base != simple_hash_from_byte_slices([b"a", b"b", b"d"])
    assert base != simple_hash_from_byte_slices([b"a", b"b"])
    assert base != simple_hash_from_byte_slices([b"b", b"a", b"c"])


def test_root_deterministic():
    items = [bytes([i]) for i in range(10)]
    assert simple_hash_from_byte_slices(items) == simple_hash_from_byte_slices(items)


@given(st.lists(st.binary(min_size=0, max_size=64), max_size=40))
def test_root_total_function(items):
    root = simple_hash_from_byte_slices(items)
    assert isinstance(root, bytes) and len(root) == 32


# -- ProvableStore ------------------------------------------------------------


def make_store(entries: dict[bytes, bytes]) -> ProvableStore:
    store = ProvableStore()
    for key, value in entries.items():
        store.set(key, value)
    store.commit()
    return store


def test_store_crud_before_commit():
    store = ProvableStore()
    store.set(b"k", b"v")
    assert store.get(b"k") == b"v"
    assert store.has(b"k")
    store.delete(b"k")
    assert store.get(b"k") is None


def test_commit_returns_root():
    store = make_store({b"a": b"1"})
    assert store.root != EMPTY_HASH


def test_empty_commit_root():
    store = ProvableStore()
    assert store.commit() == EMPTY_HASH


def test_membership_proof_verifies():
    store = make_store({b"a": b"1", b"b": b"2", b"c": b"3"})
    proof = store.prove(b"b")
    assert verify_membership(store.root, proof, b"2")


def test_membership_proof_rejects_wrong_value():
    store = make_store({b"a": b"1", b"b": b"2"})
    proof = store.prove(b"b")
    assert not verify_membership(store.root, proof, b"WRONG")


def test_membership_proof_rejects_wrong_root():
    store = make_store({b"a": b"1", b"b": b"2"})
    other = make_store({b"a": b"1", b"b": b"2", b"z": b"9"})
    proof = store.prove(b"b")
    assert not verify_membership(other.root, proof, b"2")


def test_prove_uncommitted_key_fails():
    store = make_store({b"a": b"1"})
    store.set(b"new", b"x")  # pending, not committed
    with pytest.raises(KeyError):
        store.prove(b"new")


def test_proofs_against_snapshot_not_pending_state():
    store = make_store({b"a": b"1"})
    root_before = store.root
    store.set(b"a", b"CHANGED")  # pending only
    proof = store.prove(b"a")
    assert verify_membership(root_before, proof, b"1")


def test_non_membership_proof_verifies():
    store = make_store({b"a": b"1", b"c": b"3", b"e": b"5"})
    for absent in (b"0", b"b", b"d", b"f"):
        proof = store.prove_absence(absent)
        assert verify_non_membership(store.root, proof), absent


def test_non_membership_rejects_present_key():
    store = make_store({b"a": b"1", b"c": b"3"})
    with pytest.raises(KeyError):
        store.prove_absence(b"a")


def test_non_membership_wrong_root_rejected():
    store = make_store({b"a": b"1", b"c": b"3"})
    proof = store.prove_absence(b"b")
    other = make_store({b"a": b"1", b"c": b"3", b"x": b"7"})
    assert not verify_non_membership(other.root, proof)


def test_absence_in_empty_store():
    store = ProvableStore()
    store.commit()
    proof = store.prove_absence(b"anything")
    assert verify_non_membership(EMPTY_HASH, proof)


def test_keys_with_prefix():
    store = make_store({b"ab/1": b"x", b"ab/2": b"y", b"cd/1": b"z"})
    assert store.keys_with_prefix(b"ab/") == [b"ab/1", b"ab/2"]


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=16),
        st.binary(min_size=0, max_size=16),
        min_size=1,
        max_size=30,
    )
)
def test_every_committed_key_proves(entries):
    """Property: membership proofs verify for every key in any store."""
    store = make_store(entries)
    for key, value in entries.items():
        proof = store.prove(key)
        assert verify_membership(store.root, proof, value)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=0, max_size=8),
        min_size=0,
        max_size=20,
    ),
    absent=st.binary(min_size=9, max_size=12),  # longer than any key
)
def test_absent_keys_prove_absence(entries, absent):
    """Property: non-membership proofs verify for keys not in the store."""
    store = make_store(entries)
    proof = store.prove_absence(absent)
    assert verify_non_membership(store.root, proof)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=1, max_size=8),
        min_size=2,
        max_size=20,
    )
)
def test_root_independent_of_insertion_order(entries):
    """Property: the committed root is a pure function of contents."""
    store1 = make_store(entries)
    store2 = ProvableStore()
    for key in reversed(list(entries)):
        store2.set(key, entries[key])
    store2.commit()
    assert store1.root == store2.root


def test_journal_rollback_restores_values():
    from repro.cosmos.journal import Journal

    store = make_store({b"a": b"1", b"b": b"2"})
    journal = Journal()
    store.journal = journal
    store.set(b"a", b"CHANGED")
    store.set(b"new", b"x")
    store.delete(b"b")
    journal.rollback()
    store.journal = None
    assert store.get(b"a") == b"1"
    assert store.get(b"new") is None
    assert store.get(b"b") == b"2"


def test_journal_commit_keeps_values():
    from repro.cosmos.journal import Journal

    store = make_store({b"a": b"1"})
    journal = Journal()
    store.journal = journal
    store.set(b"a", b"2")
    journal.commit()
    store.journal = None
    assert store.get(b"a") == b"2"


# -- tree shape and position binding --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=6),
        st.binary(min_size=0, max_size=6),
        min_size=0,
        max_size=300,
    )
)
def test_store_root_is_the_reference_tree(entries):
    """Property: the level-array root is RFC 6962's split tree, every key proves."""
    store = make_store(entries)
    leaves = [k + b"=" + sha256(entries[k]) for k in sorted(entries)]
    assert store.root == simple_hash_from_byte_slices(leaves)
    for index, key in enumerate(sorted(entries)):
        proof = store.prove(key)
        assert (proof.leaf_index, proof.tree_size) == (index, len(entries))
        assert verify_membership(store.root, proof, entries[key])


def _tampered(proof, size):
    """Every single-field corruption of ``proof`` that must not verify."""
    if proof.siblings:
        first = proof.siblings[0]
        flipped = bytes([first[0] ^ 1]) + first[1:]
        yield replace(proof, siblings=(flipped,) + proof.siblings[1:])
        yield replace(proof, siblings=proof.siblings[:-1])
    yield replace(proof, siblings=proof.siblings + (EMPTY_HASH,))
    for index in range(-1, size + 1):
        if index != proof.leaf_index:
            yield replace(proof, leaf_index=index)
    for tree_size in range(0, proof.leaf_index + 1):
        yield replace(proof, tree_size=tree_size)
    if proof.leaf_index == size - 1:
        # The last leaf has no right sibling anywhere; any larger size
        # gives it one and so changes its path.
        for tree_size in range(size + 1, 2 * size + 2):
            yield replace(proof, tree_size=tree_size)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17])
def test_tampered_proofs_fail(size):
    entries = {b"k%03d" % i: b"v%d" % i for i in range(size)}
    store = make_store(entries)
    for key, value in entries.items():
        proof = store.prove(key)
        for bad in _tampered(proof, size):
            assert not verify_membership(store.root, bad, value), (key, bad)


@pytest.mark.parametrize("size", range(1, 12))
def test_verified_positions_are_bound(size):
    """Whatever (leaf_index, tree_size) a proof verifies under, it keeps
    its real edge status and its real neighbours.

    The root does not commit to the tree size: leaf 0 of four leaves also
    verifies as leaf 0 of three.  What it does bind is each step's side,
    which is all absence proofs rely on.
    """
    keys = [b"k%02d" % i for i in range(size)]
    store = make_store({k: b"v" for k in keys})
    positions = {}
    for true_index, key in enumerate(keys):
        proof = store.prove(key)
        for tree_size in range(1, 2 * size + 2):
            for leaf_index in range(tree_size):
                claim = replace(proof, leaf_index=leaf_index, tree_size=tree_size)
                if claim.compute_root() != store.root:
                    continue
                assert (leaf_index == 0) == (true_index == 0)
                assert (leaf_index == tree_size - 1) == (true_index == size - 1)
                positions[(tree_size, leaf_index)] = true_index
    for (tree_size, leaf_index), true_index in positions.items():
        right = positions.get((tree_size, leaf_index + 1))
        if right is not None:
            assert right == true_index + 1


def test_absence_proof_rejects_non_adjacent_neighbours():
    """A present key cannot be "proven" absent by skipping over it."""
    store = make_store({b"a": b"1", b"b": b"2", b"c": b"3"})
    forged = NonMembershipProof(
        key=b"b", left=store.prove(b"a"), right=store.prove(b"c")
    )
    assert not verify_non_membership(store.root, forged)


def test_absence_proof_rejects_inner_leaf_as_edge():
    store = make_store({b"a": b"1", b"b": b"2", b"c": b"3"})
    past_end = NonMembershipProof(key=b"z", left=store.prove(b"b"), right=None)
    before_start = NonMembershipProof(key=b"0", left=None, right=store.prove(b"b"))
    assert not verify_non_membership(store.root, past_end)
    assert not verify_non_membership(store.root, before_start)
    # The honest edge proofs still verify.
    assert verify_non_membership(store.root, store.prove_absence(b"z"))
    assert verify_non_membership(store.root, store.prove_absence(b"0"))

