"""Merkle commitments: RFC-6962-style trees and a proved key/value store.

Two structures back the chain's commitments:

* :func:`simple_hash_from_byte_slices` — the tree Tendermint uses for the
  transaction hash in the block header (leaf/inner domain separation as in
  RFC 6962).
* :class:`ProvableStore` — a sorted key/value map with membership and
  non-membership proofs, standing in for the IAVL tree that Cosmos chains
  commit to via ``app_hash``.  IBC light clients verify packet commitments
  against this root (ICS-23 semantics).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from hashlib import sha256 as _hashlib_sha256
from typing import Iterable, Optional, Sequence

from repro.tendermint.crypto import sha256

_LEAF_PREFIX = b"\x00"
_INNER_PREFIX = b"\x01"

#: Root of an empty tree, per Tendermint convention.
EMPTY_HASH = sha256(b"")


def _leaf_hash(data: bytes) -> bytes:
    return _hashlib_sha256(_LEAF_PREFIX + data).digest()


def _inner_hash(left: bytes, right: bytes) -> bytes:
    return _hashlib_sha256(_INNER_PREFIX + left + right).digest()


def _split_point(length: int) -> int:
    """Largest power of two strictly less than ``length``."""
    if length < 1:
        raise ValueError("split point undefined for length < 1")
    if length == 1:
        return 1
    return 1 << ((length - 1).bit_length() - 1)


def simple_hash_from_byte_slices(items: Sequence[bytes]) -> bytes:
    """Tendermint's SimpleMerkleRoot over a list of byte slices."""
    if len(items) == 0:
        return EMPTY_HASH
    if len(items) == 1:
        return _leaf_hash(items[0])
    split = _split_point(len(items))
    left = simple_hash_from_byte_slices(items[:split])
    right = simple_hash_from_byte_slices(items[split:])
    return _inner_hash(left, right)


@dataclass(frozen=True, slots=True)
class MembershipProof:
    """Audit path proving ``key -> value`` sits at ``leaf_index`` of a tree.

    ``siblings`` reads leaf-upward.  Which side each sibling joins on is
    not stored: it follows from ``leaf_index`` and ``tree_size`` (RFC 9162
    §2.1.3.2), so a proof that verifies also proves its leaf's position.
    """

    key: bytes
    value_hash: bytes
    leaf_index: int
    tree_size: int
    siblings: tuple[bytes, ...]

    def compute_root(self) -> Optional[bytes]:
        """Root the path folds to, or None if it cannot fit the tree size."""
        fn = self.leaf_index
        sn = self.tree_size - 1
        if fn < 0 or fn > sn:
            return None
        node = _leaf_hash(self.key + b"=" + self.value_hash)
        for sibling in self.siblings:
            if sn == 0:
                return None
            if fn & 1 or fn == sn:
                node = _inner_hash(sibling, node)
                # A last node with no right sibling is promoted unchanged
                # until it becomes a right child.
                while not fn & 1 and fn:
                    fn >>= 1
                    sn >>= 1
            else:
                node = _inner_hash(node, sibling)
            fn >>= 1
            sn >>= 1
        if sn != 0:
            return None
        return node


@dataclass(frozen=True, slots=True)
class NonMembershipProof:
    """Proof that ``key`` is absent: membership proofs of its neighbours.

    With leaves sorted by key, a key is absent iff its would-be left and
    right neighbours are adjacent leaves.  Adjacency is read from the
    neighbours' own positions, which their audit paths bind; at an edge
    of the tree the single neighbour must be the first or last leaf.
    """

    key: bytes
    left: Optional[MembershipProof]
    right: Optional[MembershipProof]

    def consistent(self) -> bool:
        """The neighbours bracket the key and sit side by side."""
        left, right = self.left, self.right
        if left is not None and left.key >= self.key:
            return False
        if right is not None and right.key <= self.key:
            return False
        if left is None:
            # Absent from an empty tree, or before the first leaf.
            return right is None or right.leaf_index == 0
        if right is None:
            return left.leaf_index == left.tree_size - 1
        return (
            left.tree_size == right.tree_size
            and right.leaf_index == left.leaf_index + 1
        )


class ProvableStore:
    """A sorted key/value map committed to by a merkle root.

    The root is recomputed lazily per block (``commit()``); proofs are
    generated against the last committed snapshot, matching how a chain
    serves proofs for height ``h`` from the state committed at ``h``.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._committed_keys: list[bytes] = []
        self._committed: dict[bytes, bytes] = {}
        self._root: bytes = EMPTY_HASH
        self._dirty = False
        # The committed tree, bottom-up: ``_levels[0]`` holds the leaf hashes
        # and each level above pairs up the one below (an odd last node is
        # promoted unchanged).  Built once per commit; a proof then reads
        # one sibling per level.
        self._levels: list[list[bytes]] = []
        self._key_index: dict[bytes, int] = {}
        # Leaf hashes survive across commits: most keys are unchanged from
        # block to block, so each entry maps key -> (value, value_hash,
        # leaf_hash) and is recomputed only when the value actually moved.
        self._leaf_cache: dict[bytes, tuple[bytes, bytes, bytes]] = {}
        # Proofs are immutable and snapshot-scoped, so identical requests
        # between commits (relayers re-proving the same commitment) share
        # one object.  Cleared whenever the snapshot changes.
        self._proof_cache: dict[bytes, MembershipProof] = {}
        #: Optional transaction journal (see :mod:`repro.cosmos.journal`).
        self.journal = None

    # -- mutation (pending state) -------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        journal = self.journal
        if journal is not None:
            previous = self._data.get(key)
            if previous is None or previous != value:
                journal.record_kv(self._data, key, previous)
        self._data[key] = value
        self._dirty = True

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def delete(self, key: bytes) -> None:
        if key in self._data:
            if self.journal is not None:
                self.journal.record_kv(self._data, key, self._data[key])
            del self._data[key]
            self._dirty = True

    def has(self, key: bytes) -> bool:
        return key in self._data

    def keys_with_prefix(self, prefix: bytes) -> list[bytes]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def __len__(self) -> int:
        return len(self._data)

    # -- commitment ----------------------------------------------------------

    def commit(self) -> bytes:
        """Snapshot the pending state and return the new root."""
        if not self._dirty:
            # Nothing changed since the last snapshot (an empty block):
            # the committed tree is already current.
            return self._root
        self._committed = dict(self._data)
        self._committed_keys = sorted(self._committed)
        self._key_index = {k: i for i, k in enumerate(self._committed_keys)}
        leaf_cache = self._leaf_cache
        leaf_hashes = []
        for key in self._committed_keys:
            value = self._committed[key]
            cached = leaf_cache.get(key)
            if cached is None or cached[0] != value:
                value_hash = sha256(value)
                cached = (value, value_hash, _leaf_hash(key + b"=" + value_hash))
                leaf_cache[key] = cached
            leaf_hashes.append(cached[2])
        self._levels = levels = [leaf_hashes]
        level = leaf_hashes
        while len(level) > 1:
            parents = list(map(_inner_hash, level[0::2], level[1::2]))
            if len(level) & 1:
                parents.append(level[-1])
            levels.append(parents)
            level = parents
        self._root = level[0] if level else EMPTY_HASH
        self._proof_cache = {}
        self._dirty = False
        return self._root

    def commit_cheap(self, root: bytes) -> bytes:
        """Commit without rebuilding the merkle tree (stub-proof mode).

        Used by very large benchmark sweeps where per-block tree rebuilds
        would dominate host CPU.  ``prove``/``prove_absence`` must not be
        called afterwards (stub proofs are used instead); the provided
        ``root`` becomes the app hash that stub proofs tag themselves with.
        """
        self._root = root
        self._dirty = False
        return self._root

    @property
    def root(self) -> bytes:
        """Root of the last committed snapshot."""
        return self._root

    # -- proofs (against the committed snapshot) ------------------------------

    def prove(self, key: bytes) -> MembershipProof:
        """Membership proof for ``key`` in the committed snapshot."""
        proof = self._proof_cache.get(key)
        if proof is not None:
            return proof
        leaf_index = self._key_index.get(key)
        if leaf_index is None:
            raise KeyError(f"key {key!r} not in committed state")
        siblings = []
        index = leaf_index
        for level in self._levels[:-1]:
            sibling = index ^ 1
            if sibling < len(level):
                siblings.append(level[sibling])
            index >>= 1
        cached = self._leaf_cache.get(key)
        if cached is not None and cached[0] == self._committed[key]:
            value_hash = cached[1]
        else:
            value_hash = sha256(self._committed[key])
        proof = MembershipProof(
            key=key,
            value_hash=value_hash,
            leaf_index=leaf_index,
            tree_size=len(self._committed_keys),
            siblings=tuple(siblings),
        )
        self._proof_cache[key] = proof
        return proof

    def prove_absence(self, key: bytes) -> NonMembershipProof:
        """Non-membership proof for ``key`` in the committed snapshot."""
        if key in self._committed:
            raise KeyError(f"key {key!r} IS in committed state")
        idx = bisect.bisect_left(self._committed_keys, key)
        left = right = None
        if idx > 0:
            left = self.prove(self._committed_keys[idx - 1])
        if idx < len(self._committed_keys):
            right = self.prove(self._committed_keys[idx])
        return NonMembershipProof(key=key, left=left, right=right)


def verify_membership(root: bytes, proof: MembershipProof, value: bytes) -> bool:
    """Check a membership proof against a root and an expected value."""
    if proof.value_hash != sha256(value):
        return False
    return proof.compute_root() == root


def verify_non_membership(root: bytes, proof: NonMembershipProof) -> bool:
    """Check a non-membership proof against a root.

    Verifies each neighbour's membership proof, that they bracket the
    absent key, and that their proven positions are adjacent (see
    :meth:`NonMembershipProof.consistent`).
    """
    if not proof.consistent():
        return False
    if proof.left is None and proof.right is None:
        return root == EMPTY_HASH
    for neighbour in (proof.left, proof.right):
        if neighbour is not None and neighbour.compute_root() != root:
            return False
    return True


def merkle_root_of_hashes(hashes: Iterable[bytes]) -> bytes:
    """Convenience: SimpleMerkleRoot over pre-hashed items."""
    return simple_hash_from_byte_slices(list(hashes))
