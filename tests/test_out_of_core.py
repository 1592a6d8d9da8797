"""Out-of-core construction and serving paths (the row-sharded build).

``next_hop_table`` with preallocated ``out``/``hop_weight_out`` buffers
(typically memmaps) must be bit-identical to the in-RAM build while its
*resident* working set stays bounded by the chunked score tensors — the
property that lets oracle construction reach ``n = 4096`` without a full
``(n, n)`` int64 in RAM.  The same row-sharding shows up in
``route_batch(chunk_queries=...)``, float32/memmap-backed
:class:`DistanceOracle` artifacts, and the byte accounting of
:class:`OracleStore`.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.routing_tables import (
    next_hop_table,
    next_hop_table_reference,
)
from repro.graphs import erdos_renyi
from repro.serve import DistanceOracle, route_batch
from repro.serve.oracle import _memmap_backed
from repro.serve.store import OracleStore, estimate_digest

from tests.helpers import make_rng


def toy_estimate(graph, rng):
    """A plausible (n, n) float64 'estimate' — contents are irrelevant to
    table mechanics, only shape/dtype/finiteness patterns matter here."""
    est = rng.uniform(1.0, 50.0, (graph.n, graph.n))
    np.fill_diagonal(est, 0.0)
    return est


class TestRowShardedNextHop:
    def test_out_buffers_bit_identical(self):
        rng = make_rng(61)
        graph = erdos_renyi(48, 0.2, rng)
        estimate = toy_estimate(graph, rng)
        expected = next_hop_table(graph, estimate)
        table = np.empty((48, 48), dtype=np.int64)
        hop_weight = np.empty((48, 48), dtype=np.float64)
        result = next_hop_table(
            graph, estimate, out=table, hop_weight_out=hop_weight
        )
        assert result is table
        assert np.array_equal(table, expected)
        assert np.array_equal(expected, next_hop_table_reference(graph, estimate))

    def test_hop_weight_matches_matrix_gather(self):
        rng = make_rng(62)
        graph = erdos_renyi(40, 0.25, rng)
        estimate = toy_estimate(graph, rng)
        table = np.empty((40, 40), dtype=np.int64)
        hop_weight = np.empty((40, 40), dtype=np.float64)
        next_hop_table(graph, estimate, out=table, hop_weight_out=hop_weight)
        # The historical construction: gather w(u, table[u, t]) from the
        # dense matrix after the fact.
        matrix = graph.matrix()
        legacy = np.where(
            table >= 0,
            matrix[np.arange(40)[:, None], np.maximum(table, 0)],
            np.inf,
        )
        np.fill_diagonal(legacy, 0.0)
        assert np.array_equal(hop_weight, legacy)

    def test_memmap_out_buffers(self, tmp_path):
        rng = make_rng(63)
        graph = erdos_renyi(32, 0.3, rng)
        estimate = toy_estimate(graph, rng)
        table = np.memmap(tmp_path / "t.bin", dtype=np.int64,
                          mode="w+", shape=(32, 32))
        hop_weight = np.memmap(tmp_path / "w.bin", dtype=np.float64,
                               mode="w+", shape=(32, 32))
        next_hop_table(graph, estimate, out=table, hop_weight_out=hop_weight)
        assert np.array_equal(np.asarray(table),
                              next_hop_table(graph, estimate))

    def test_float32_estimate_matches_float64(self):
        rng = make_rng(64)
        graph = erdos_renyi(40, 0.25, rng)
        # Integer-valued weights: exactly representable in float32, so the
        # float64-upcast scoring must reproduce the float64 table exactly.
        est = rng.integers(1, 1000, (40, 40)).astype(np.float64)
        np.fill_diagonal(est, 0.0)
        t64 = next_hop_table(graph, est)
        t32 = next_hop_table(graph, est.astype(np.float32))
        assert np.array_equal(t32, t64)

    def test_out_validation(self):
        rng = make_rng(65)
        graph = erdos_renyi(10, 0.4, rng)
        estimate = toy_estimate(graph, rng)
        with pytest.raises(ValueError, match="int64"):
            next_hop_table(graph, estimate, out=np.empty((10, 10)))
        with pytest.raises(ValueError, match="float64"):
            next_hop_table(
                graph, estimate,
                out=np.empty((10, 10), dtype=np.int64),
                hop_weight_out=np.empty((10, 10), dtype=np.float32),
            )

    def test_peak_working_set_bounded_at_n2048(self):
        """The row-sharded build never materialises an extra (n, n) array.

        Inputs and destination buffers are allocated *before* tracing
        starts, so the traced peak is exactly the transient working set
        of ``next_hop_table`` — which must stay far below one (n, n)
        int64 table (32 MiB at n=2048; the bound here is half of that).
        """
        n = 2048
        rng = make_rng(66)
        graph = erdos_renyi(n, 6.0 / n, rng)
        graph.csr()  # pre-build the adjacency the table construction reads
        estimate = rng.uniform(1.0, 50.0, (n, n))
        np.fill_diagonal(estimate, 0.0)
        table = np.empty((n, n), dtype=np.int64)
        hop_weight = np.empty((n, n), dtype=np.float64)
        tracemalloc.start()
        try:
            next_hop_table(
                graph, estimate, chunk_elems=1 << 17,
                out=table, hop_weight_out=hop_weight,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A handful of ~1 MiB score tensors are live per chunk; the bound
        # leaves headroom while still ruling out any (n, n) temporary.
        assert peak < table.nbytes / 2, (
            f"peak transient working set {peak / 2**20:.1f} MiB is not "
            f"bounded (table alone is {table.nbytes / 2**20:.1f} MiB)"
        )
        # And the sharded build still produced a real table.
        assert np.array_equal(np.diag(table), np.arange(n))
        assert np.all((table >= -1) & (table < n))


class TestChunkedRouteBatch:
    def _oracle(self, seed=71, n=48):
        rng = make_rng(seed)
        graph = erdos_renyi(n, 0.2, rng)
        estimate = toy_estimate(graph, rng)
        return DistanceOracle.build(graph, estimate), rng

    @pytest.mark.parametrize("chunk", [1, 7, 16, 1000])
    def test_bit_identical_to_unchunked(self, chunk):
        oracle, rng = self._oracle()
        sources = rng.integers(0, oracle.n, 50)
        targets = rng.integers(0, oracle.n, 50)
        whole = route_batch(oracle, sources, targets, record_paths=True)
        parts = route_batch(
            oracle, sources, targets, record_paths=True, chunk_queries=chunk
        )
        assert np.array_equal(parts.status, whole.status)
        assert np.array_equal(parts.delivered, whole.delivered)
        assert np.array_equal(parts.lengths, whole.lengths)
        assert np.array_equal(parts.hops, whole.hops)
        # Paths agree hop-for-hop (widths may differ by -1 padding only).
        width = min(parts.paths.shape[1], whole.paths.shape[1])
        assert np.array_equal(parts.paths[:, :width], whole.paths[:, :width])
        assert np.all(parts.paths[:, width:] == -1)
        assert np.all(whole.paths[:, width:] == -1)

    def test_chunk_validation(self):
        oracle, _ = self._oracle()
        with pytest.raises(ValueError, match="chunk_queries"):
            route_batch(oracle, [0], [1], chunk_queries=0)


class TestFloat32OracleArtifacts:
    def _float32_oracle(self, seed=81, n=40):
        rng = make_rng(seed)
        graph = erdos_renyi(n, 0.25, rng)
        est = rng.integers(1, 1000, (n, n)).astype(np.float32)
        np.fill_diagonal(est, 0.0)
        return DistanceOracle.build(graph, est, meta={"variant": "f32"}), graph

    def test_build_adopts_float32_without_densifying(self):
        oracle, graph = self._float32_oracle()
        assert oracle.estimate.dtype == np.float32
        assert oracle.meta["estimate_dtype"] == "float32"
        # The table must match a float64 build of the same estimate.
        f64 = DistanceOracle.build(
            graph, np.asarray(oracle.estimate, dtype=np.float64)
        )
        assert np.array_equal(oracle.next_hop, f64.next_hop)
        assert np.array_equal(oracle.hop_weight, f64.hop_weight)

    def test_query_many_upcasts_to_float64(self):
        oracle, _ = self._float32_oracle()
        got = oracle.query_many([0, 1], [2, 3])
        assert got.dtype == np.float64

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_save_load_preserves_dtype(self, tmp_path, encoding):
        oracle, _ = self._float32_oracle()
        path = str(tmp_path / "oracle.json")
        oracle.save(path, matrix_encoding=encoding)
        loaded = DistanceOracle.load(path)
        assert loaded.estimate.dtype == np.float32
        assert np.array_equal(loaded.estimate, oracle.estimate)
        assert np.array_equal(loaded.next_hop, oracle.next_hop)
        assert loaded.content_key() == oracle.content_key()

    def test_float64_payloads_still_round_trip(self, tmp_path):
        rng = make_rng(82)
        graph = erdos_renyi(24, 0.3, rng)
        oracle = DistanceOracle.build(graph, toy_estimate(graph, rng))
        path = str(tmp_path / "oracle.json")
        oracle.save(path)
        loaded = DistanceOracle.load(path)
        assert loaded.estimate.dtype == np.float64
        assert loaded.content_key() == oracle.content_key()


class TestMemmapBackedOracles:
    def test_build_with_memmap_dir(self, tmp_path):
        rng = make_rng(91)
        graph = erdos_renyi(32, 0.25, rng)
        estimate = toy_estimate(graph, rng)
        dense = DistanceOracle.build(graph, estimate)
        spilled = DistanceOracle.build(
            graph, estimate, memmap_dir=str(tmp_path)
        )
        assert _memmap_backed(spilled.next_hop)
        assert _memmap_backed(spilled.hop_weight)
        assert np.array_equal(spilled.next_hop, dense.next_hop)
        assert spilled.resident_nbytes < spilled.nbytes
        assert dense.resident_nbytes == dense.nbytes

    def test_load_memmap_dir_and_serve(self, tmp_path):
        rng = make_rng(92)
        graph = erdos_renyi(32, 0.25, rng)
        oracle = DistanceOracle.build(graph, toy_estimate(graph, rng))
        path = str(tmp_path / "oracle.json")
        oracle.save(path)
        loaded = DistanceOracle.load(path, memmap_dir=str(tmp_path))
        for name in ("estimate", "next_hop", "hop_weight"):
            assert _memmap_backed(getattr(loaded, name)), name
        assert loaded.resident_nbytes == 0
        assert loaded.describe()["resident_nbytes"] == 0
        # Queries and routing still serve bit-identical answers.
        sources = rng.integers(0, 32, 20)
        targets = rng.integers(0, 32, 20)
        assert np.array_equal(
            loaded.query_many(sources, targets),
            oracle.query_many(sources, targets),
        )
        got = route_batch(loaded, sources, targets)
        want = route_batch(oracle, sources, targets)
        assert np.array_equal(got.status, want.status)
        assert np.array_equal(got.lengths, want.lengths)

    def test_finalizer_removes_backing_dir(self, tmp_path):
        rng = make_rng(93)
        graph = erdos_renyi(16, 0.4, rng)
        oracle = DistanceOracle.build(graph, toy_estimate(graph, rng))
        clone = oracle.memmap_to(str(tmp_path))
        assert any(tmp_path.iterdir())
        del clone
        import gc

        gc.collect()
        assert not any(tmp_path.iterdir())


class TestStoreByteAccounting:
    def test_store_charges_resident_bytes(self, tmp_path):
        rng = make_rng(101)
        graph = erdos_renyi(24, 0.3, rng)
        estimate = toy_estimate(graph, rng)
        dense = DistanceOracle.build(
            graph, estimate, meta={"variant": "dense"}
        )
        spilled = dense.memmap_to(str(tmp_path))
        store = OracleStore(max_entries=8, max_bytes=10 * dense.nbytes)
        store.put(dense, key="dense")
        assert store.nbytes == dense.nbytes
        store.put(spilled, key="spilled")
        # The memmap clone adds nothing resident.
        assert store.nbytes == dense.nbytes
        assert spilled.resident_nbytes == 0

    def test_eviction_uses_resident_bytes(self, tmp_path):
        rng = make_rng(102)
        graph = erdos_renyi(24, 0.3, rng)
        estimate = toy_estimate(graph, rng)
        dense = DistanceOracle.build(graph, estimate)
        spilled = dense.memmap_to(str(tmp_path))
        # Budget below one dense oracle: memmap clones still all fit.
        store = OracleStore(max_entries=8, max_bytes=dense.nbytes // 2)
        for i in range(4):
            store.put(spilled, key=f"mm-{i}")
        assert len(store) == 4 and store.evictions == 0
        store.put(dense, key="dense")
        # The oversized dense entry evicts LRU entries but is itself kept.
        assert "dense" in [k for k in store._store]


class TestEstimateDigest:
    def test_float64_digest_unchanged(self):
        rng = make_rng(111)
        arr = rng.uniform(0, 10, (37, 53))
        expected = hashlib.sha256(
            np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        ).hexdigest()
        assert estimate_digest(arr) == expected

    def test_float32_hashes_raw_bytes(self):
        rng = make_rng(112)
        arr = rng.uniform(0, 10, (20, 20)).astype(np.float32)
        expected = hashlib.sha256(arr.tobytes()).hexdigest()
        assert estimate_digest(arr) == expected
        # Distinct from the float64 digest of the same values.
        assert estimate_digest(arr) != estimate_digest(
            arr.astype(np.float64)
        )

    def test_integer_input_casts_to_float64(self):
        arr = np.arange(16, dtype=np.int64).reshape(4, 4)
        expected = hashlib.sha256(
            arr.astype(np.float64).tobytes()
        ).hexdigest()
        assert estimate_digest(arr) == expected
