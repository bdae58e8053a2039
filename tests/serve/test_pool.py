"""Graph pool: ref-counting, sharing, byte-budgeted LRU eviction."""

from __future__ import annotations

import threading

from repro.api import RunSpec
from repro.serve.pool import GraphPool, graph_nbytes, pool_key

WIKI = RunSpec(dataset="wikitalk-sim", kernel="pagerank", tier="tiny")
LIVEJ = RunSpec(dataset="livejournal-sim", kernel="pagerank", tier="tiny")


def test_same_spec_shares_one_graph_instance():
    pool = GraphPool()
    with pool.acquire(WIKI) as a, pool.acquire(WIKI) as b:
        assert a.graph is b.graph
        assert a.graph_name == b.graph_name
    assert pool.stats()["entries"] == 1


def test_kernel_does_not_split_the_pool_key():
    pool = GraphPool()
    other_kernel = RunSpec(dataset="wikitalk-sim", kernel="cc", tier="tiny")
    assert pool_key(WIKI) == pool_key(other_kernel)
    with pool.acquire(WIKI) as a, pool.acquire(other_kernel) as b:
        assert a.graph is b.graph


def test_release_is_idempotent_and_unpins():
    pool = GraphPool()
    lease = pool.acquire(WIKI)
    assert pool.stats()["pinned"] == 1
    lease.release()
    lease.release()  # second release must be a no-op
    assert pool.stats()["pinned"] == 0
    assert pool.stats()["entries"] == 1  # stays warm


def test_pinned_graphs_survive_a_zero_budget():
    pool = GraphPool(max_bytes=0)
    with pool.acquire(WIKI) as lease:
        # over budget but pinned: eviction must not touch it
        assert pool.stats()["entries"] == 1
        assert lease.graph.num_vertices > 0
    # unpinned now; the budget evicts it
    assert pool.stats()["entries"] == 0
    assert pool.total_bytes == 0


def test_lru_eviction_under_budget():
    pool = GraphPool()
    with pool.acquire(WIKI) as wiki_lease:
        wiki_bytes = graph_nbytes(wiki_lease.graph)
    with pool.acquire(LIVEJ) as livej_lease:
        livej_bytes = graph_nbytes(livej_lease.graph)
    # Both warm; budget fits exactly one of them.  WIKI is the least
    # recently used, so it must be the one evicted.
    pool.max_bytes = max(wiki_bytes, livej_bytes)
    with pool.acquire(LIVEJ):
        pass
    stats = pool.stats()
    assert stats["entries"] == 1
    assert "/".join(map(str, pool_key(LIVEJ))) in stats["graphs"]
    assert "/".join(map(str, pool_key(WIKI))) not in stats["graphs"]
    assert stats["evictions"] >= 1
    assert stats["bytes"] <= pool.max_bytes


def test_concurrent_cold_acquires_load_once():
    pool = GraphPool()
    leases = []
    errors = []
    barrier = threading.Barrier(6)

    def worker():
        barrier.wait()
        try:
            leases.append(pool.acquire(WIKI))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(leases) == 6
    first = leases[0].graph
    assert all(lease.graph is first for lease in leases)
    stats = pool.stats()
    assert stats["entries"] == 1
    # exactly one miss (the loader); everyone else hit or waited for it
    assert list(stats["graphs"].values())[0]["refs"] == 6
    for lease in leases:
        lease.release()
    assert pool.stats()["pinned"] == 0


def test_clear_empties_everything():
    pool = GraphPool()
    with pool.acquire(WIKI):
        pass
    pool.clear()
    assert pool.stats()["entries"] == 0
    assert pool.total_bytes == 0
