"""Unit tests: Journal mechanics and DirectionWorker helpers."""

import pytest

from repro.cosmos.journal import Journal, Journaled


def test_journal_rollback_order_is_reverse():
    journal = Journal()
    log = []
    journal.record(lambda: log.append("first-undo"))
    journal.record(lambda: log.append("second-undo"))
    journal.rollback()
    assert log == ["second-undo", "first-undo"]
    assert len(journal) == 0


def test_journal_commit_discards_undos():
    journal = Journal()
    log = []
    journal.record(lambda: log.append("undo"))
    journal.commit()
    journal.rollback()  # nothing left to undo
    assert log == []


def test_journaled_mixin_noop_without_journal():
    class Keeper(Journaled):
        pass

    keeper = Keeper()
    keeper._journal_undo(lambda: (_ for _ in ()).throw(RuntimeError))
    # No journal attached: the undo is dropped, nothing raised.


def test_journaled_mixin_records_when_attached():
    class Keeper(Journaled):
        pass

    keeper = Keeper()
    journal = Journal()
    keeper.journal = journal
    calls = []
    keeper._journal_undo(lambda: calls.append(1))
    assert len(journal) == 1
    journal.rollback()
    assert calls == [1]


def test_nested_state_rollback_composition():
    """Bank + store + ibc mirrors roll back together through one journal."""
    from repro.cosmos.bank import BankKeeper
    from repro.tendermint.merkle import ProvableStore

    store = ProvableStore()
    bank = BankKeeper(store=store)
    bank.mint("alice", "x", 100)
    store.commit()

    journal = Journal()
    bank.journal = journal
    store.journal = journal
    bank.send("alice", "bob", "x", 30)
    store.set(b"extra", b"1")
    journal.rollback()
    bank.journal = None
    store.journal = None
    assert bank.balance("alice", "x") == 100
    assert bank.balance("bob", "x") == 0
    assert store.get(b"extra") is None
    # The balance mirror in the store also rolled back.
    assert store.get(b"balances/alice/x") == b"100"


# -- worker ownership/batching helpers -------------------------------------------


def make_worker(coordination_index=0, coordination_total=1):
    """A DirectionWorker with inert dependencies, for pure-logic tests."""
    from repro.relayer.config import RelayerConfig
    from repro.relayer.logging import RelayerLog
    from repro.relayer.worker import DirectionWorker, PathEnd
    from repro.sim import Environment

    env = Environment()

    class _Endpoint:
        class factory:
            class wallet:
                address = "addr"

    config = RelayerConfig(
        coordination_index=coordination_index,
        coordination_total=coordination_total,
    )
    return DirectionWorker(
        env=env,
        src=_Endpoint(),
        dst=_Endpoint(),
        src_end=PathEnd("a", "c", "conn", "transfer", "channel-0"),
        dst_end=PathEnd("b", "c", "conn", "transfer", "channel-0"),
        config=config,
        log=RelayerLog(env, "unit"),
        heights={},
    )


def _batch(hashes):
    from repro.ibc.packet import Height, Packet
    from repro.relayer.events import PacketEvent, WorkBatch

    batch = WorkBatch(chain_id="a", height=5, kind="send_packet",
                      routing_channel="channel-0")
    for i, tx_hash in enumerate(hashes):
        batch.events.append(
            PacketEvent(
                kind="send_packet",
                height=5,
                tx_hash=tx_hash,
                packet=Packet(
                    sequence=i + 1,
                    source_port="transfer",
                    source_channel="channel-0",
                    destination_port="transfer",
                    destination_channel="channel-0",
                    data=b"{}",
                    timeout_height=Height(0, 100),
                    timeout_timestamp=0.0,
                ),
            )
        )
    return batch


def test_uncoordinated_worker_owns_everything():
    worker = make_worker()
    batch = _batch([bytes([i]) * 32 for i in range(10)])
    assert len(worker._owned(batch)) == 10


def test_coordinated_workers_partition_batches():
    hashes = [bytes([i, i + 1]) * 16 for i in range(30)]
    batch = _batch(hashes)
    w0 = make_worker(0, 2)
    w1 = make_worker(1, 2)
    owned0 = {e.tx_hash for e in w0._owned(batch).events}
    owned1 = {e.tx_hash for e in w1._owned(batch).events}
    assert owned0 | owned1 == set(hashes)
    assert owned0 & owned1 == set()
    assert owned0 and owned1  # both got a share


def test_work_batch_tx_hash_order_preserved():
    hashes = [b"\x03" * 32, b"\x01" * 32, b"\x03" * 32, b"\x02" * 32]
    batch = _batch(hashes)
    assert batch.tx_hashes == [b"\x03" * 32, b"\x01" * 32, b"\x02" * 32]
    assert len(batch.events_for_tx(b"\x03" * 32)) == 2


# -- timeout heap ------------------------------------------------------------------


def _packet(sequence, timeout_height):
    from repro.ibc.packet import Height, Packet

    return Packet(
        sequence=sequence,
        source_port="transfer",
        source_channel="channel-0",
        destination_port="transfer",
        destination_channel="channel-0",
        data=b"{}",
        timeout_height=Height(0, timeout_height),
        timeout_timestamp=1.0 if timeout_height == 0 else 0.0,
    )


def test_timeout_heap_relays_due_packets_in_sequence_order():
    worker = make_worker()
    relayed = []
    declined = {6}  # its first timeout attempt does not go through

    def fake_relay_timeouts(expired):
        relayed.append([p.sequence for p in expired])
        for packet in expired:
            if packet.sequence in declined:
                declined.discard(packet.sequence)
            else:
                worker.pending.pop(packet.sequence)
        yield worker.env.timeout(0)

    worker._relay_timeouts = fake_relay_timeouts
    # Arrival order is not sequence order.
    for sequence, height in [(7, 10), (3, 10), (9, 8), (1, 10), (4, 10),
                             (6, 9), (2, 20), (5, 0)]:
        worker._add_pending(_packet(sequence, height))
    worker._add_pending(_packet(3, 10))  # a second sighting changes nothing
    assert sorted(worker._timeouts) == [
        (8, 9), (9, 6), (10, 1), (10, 3), (10, 4), (10, 7), (20, 2)
    ]  # the zero-height packet 5 never enters the heap
    worker.pending.pop(1)  # acknowledged before it came due
    worker._in_flight.add(4)  # a recv relay of it is still running

    worker.processes.spawn(worker._timeout_loop(), name="timeout")
    tick = worker.config.confirm_poll_seconds * 2

    def run_tick():
        worker.env.run(until=worker.env.now + tick)

    run_tick()  # destination height unknown (0): nothing is due
    assert relayed == []
    worker.heights["b"] = 10
    run_tick()
    assert relayed == [[3, 6, 7, 9]]
    worker._in_flight.discard(4)
    run_tick()
    assert relayed[1:] == [[4, 6]]  # 4 left flight, 6 is retried
    worker.heights["b"] = 30
    run_tick()
    assert relayed[2:] == [[2]]
    run_tick()
    assert relayed[3:] == []  # acked 1 and zero-height 5 are never relayed
    assert sorted(worker.pending) == [5]
    assert worker._timeouts == []
