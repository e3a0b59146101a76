"""Process-mode cluster: shared-memory arenas, lifecycle, supervision.

The load-bearing guarantees:

* ``SharedArenaAllocator`` backs ``PagedKVPool`` arrays with named POSIX
  shared-memory segments that another process can attach to
  byte-identically — including the int8/int4 codec scale arrays — and
  the in-process path is untouched (bit-identical by construction: same
  ``np.ndarray`` semantics, different buffer).
* Segments never outlive the cluster: normal ``shutdown()``, repeated
  ``drain()``, a SIGKILLed worker, and a parent exception (context
  manager) all leave ``/dev/shm`` clean — and no helper process (a
  ``multiprocessing`` resource tracker) is started to manage them.
* A process cluster is per-request token-identical to the bare engine
  and the threaded lockstep cluster for all 7 policies on both named
  scenarios (acceptance criterion), with ``error_cause="worker_died"``
  parity when a worker is killed mid-flight.
* Supervision satellites: submit-time routing around already-dead
  workers, restart-with-respawn (``RouterConfig(restart_workers=True)``)
  in both modes, and ``max_pending`` admission backpressure rejecting
  with ``error_cause="cluster_overloaded"``.
"""

import glob
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro

from repro.core.kv_pool import (
    AttachedArena,
    KVPoolGroup,
    PagedKVPool,
    SharedArenaAllocator,
    arena_allocator,
    current_arena_allocator,
)
from repro.eval.harness import POLICY_NAMES, build_policy_factory
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import (
    BatchedEngine,
    EngineCluster,
    SCENARIOS,
    SchedulerPolicy,
    ServingRequest,
)
from repro.serving.cluster import RouterConfig

VOCAB = 89
HEADS, HEAD_DIM, LAYERS = 2, 8, 2


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=VOCAB,
        model_dim=HEADS * HEAD_DIM,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        num_layers=LAYERS,
        mlp_hidden_dim=24,
        seed=5,
    )
    return TransformerLM(config)


def scenario_factory(model, scenario, policy_factory=None):
    def factory():
        pools = KVPoolGroup(
            LAYERS,
            page_size=scenario.page_size,
            num_heads=HEADS,
            head_dim=HEAD_DIM,
            num_pages=scenario.num_pages,
        )
        return BatchedEngine(
            model,
            policy_factory=policy_factory,
            max_batch_size=scenario.max_batch_size,
            kv_pools=pools,
            scheduler_policy=SchedulerPolicy(
                preemption=True, admission="optimistic"
            ),
        )

    return factory


def submit_trace(target, trace):
    for req in trace:
        target.submit(req.to_serving_request())
    return [req.request_id for req in trace]


def _req(prompt, rid=None, max_new_tokens=4):
    return ServingRequest(
        prompt_ids=list(prompt), max_new_tokens=max_new_tokens, request_id=rid
    )


def shm_entries(prefix="repro-"):
    return sorted(
        os.path.basename(p) for p in glob.glob(f"/dev/shm/{prefix}*")
    )


def wait_for_hello(cluster, timeout=60.0):
    for worker in cluster.workers:
        assert worker.hello.wait(timeout), (
            f"worker {worker.index} never reported its arena manifest"
        )


def kill_worker(cluster, index):
    """SIGKILL a process worker — no farewell, no unlink of its own."""
    process = cluster.workers[index].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)
    assert not process.is_alive()


# ----------------------------------------------------------------------
# SharedArenaAllocator unit tests (satellite: shm lifecycle coverage)
# ----------------------------------------------------------------------
class TestSharedArenaAllocator:
    def test_zeros_attach_roundtrip(self):
        allocator = SharedArenaAllocator(prefix=f"repro-t{os.getpid()}a")
        try:
            a = allocator.zeros((3, 4), np.float64)
            b = allocator.zeros((2, 5), np.int8)
            assert a.sum() == 0 and b.sum() == 0
            a[:] = np.arange(12, dtype=np.float64).reshape(3, 4)
            b[:] = np.arange(10, dtype=np.int8).reshape(2, 5)
            manifest = allocator.manifest()
            assert sorted(m[0] for m in manifest) == sorted(
                allocator.segment_names
            )
            attached = AttachedArena(manifest)
            names = {m[0]: m for m in manifest}
            for name, view in attached.arrays.items():
                shape, dtype_str = names[name][1], names[name][2]
                assert view.shape == tuple(shape)
                assert view.dtype == np.dtype(dtype_str)
            got_a = attached.arrays[manifest[0][0]]
            np.testing.assert_array_equal(got_a, a)
            # Writes propagate both directions (same physical memory).
            got_a[0, 0] = 99.0
            assert a[0, 0] == 99.0
            attached.close()
        finally:
            allocator.unlink()
            allocator.close()
        assert not shm_entries(allocator.prefix)

    def test_free_unlinks_immediately(self):
        allocator = SharedArenaAllocator(prefix=f"repro-t{os.getpid()}b")
        try:
            a = allocator.zeros((8,), np.float32)
            name = allocator.segment_names[0]
            assert shm_entries(name)
            allocator.free(a)
            assert not shm_entries(name)
            assert not allocator.manifest()
            # Freeing a foreign array is a no-op, not an error.
            allocator.free(np.zeros(4))
        finally:
            allocator.unlink()
            allocator.close()

    def test_unlink_by_prefix_sweeps_orphans(self):
        prefix = f"repro-t{os.getpid()}c"
        allocator = SharedArenaAllocator(prefix=prefix)
        allocator.zeros((4,), np.float64)
        allocator.zeros((4,), np.float64)
        assert len(shm_entries(prefix)) == 2
        removed = SharedArenaAllocator.unlink_by_prefix(prefix)
        assert len(removed) == 2
        assert not shm_entries(prefix)
        assert SharedArenaAllocator.unlink_by_prefix(prefix) == []
        allocator.close()

    def test_ambient_allocator_context(self):
        assert current_arena_allocator().__class__.__name__ == (
            "ArenaAllocator"
        )
        allocator = SharedArenaAllocator(prefix=f"repro-t{os.getpid()}d")
        try:
            with arena_allocator(allocator):
                assert current_arena_allocator() is allocator
                pool = PagedKVPool(
                    num_pages=4,
                    page_size=4,
                    num_heads=HEADS,
                    head_dim=HEAD_DIM,
                )
            assert current_arena_allocator() is not allocator
            assert pool.allocator is allocator
            # Keys + values live in named segments.
            assert len(allocator.manifest()) == 2
        finally:
            allocator.unlink()
            allocator.close()

    @pytest.mark.parametrize("codec", ["int8", "int4"])
    def test_quantized_pool_shares_scales(self, codec):
        """Quantized arenas put code bytes *and* scale arrays in shm, and
        reads through an attached mapping are byte-identical."""
        prefix = f"repro-t{os.getpid()}e{codec}"
        allocator = SharedArenaAllocator(prefix=prefix)
        try:
            pool = PagedKVPool(
                num_pages=4,
                page_size=4,
                num_heads=HEADS,
                head_dim=HEAD_DIM,
                codec=codec,
                allocator=allocator,
            )
            # codes (keys/values) + scales (key/value) = 4 segments.
            assert len(allocator.manifest()) == 4
            rng = np.random.default_rng(0)
            page = pool.alloc()
            keys = rng.normal(size=(4, HEADS, HEAD_DIM))
            values = rng.normal(size=(4, HEADS, HEAD_DIM))
            pool.write_rows(page, 0, keys, values)

            reference = PagedKVPool(
                num_pages=4,
                page_size=4,
                num_heads=HEADS,
                head_dim=HEAD_DIM,
                codec=codec,
            )
            ref_page = reference.alloc()
            reference.write_rows(ref_page, 0, keys, values)

            attached = AttachedArena(allocator.manifest())
            for (name, _, _), ref_arr in zip(
                allocator.manifest(),
                (
                    reference._keys,
                    reference._values,
                    reference._key_scales,
                    reference._value_scales,
                ),
            ):
                np.testing.assert_array_equal(
                    attached.arrays[name], ref_arr
                )
            attached.close()
        finally:
            allocator.unlink()
            allocator.close()
        assert not shm_entries(prefix)

    def test_pool_growth_frees_old_segments(self):
        prefix = f"repro-t{os.getpid()}f"
        allocator = SharedArenaAllocator(prefix=prefix)
        try:
            pool = PagedKVPool(
                num_pages=None,
                page_size=4,
                num_heads=HEADS,
                head_dim=HEAD_DIM,
                allocator=allocator,
            )
            before = set(allocator.segment_names)
            for _ in range(64):
                pool.alloc()
            after = set(allocator.segment_names)
            assert after != before, "growth should reallocate segments"
            # Old names are unlinked from /dev/shm.
            live = set(shm_entries(prefix))
            assert not (before - after) & live
            assert live == after
        finally:
            allocator.unlink()
            allocator.close()
        assert not shm_entries(prefix)


# ----------------------------------------------------------------------
# Token identity: process == bare engine == threaded lockstep
# ----------------------------------------------------------------------
class TestProcessTokenIdentity:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize(
        "scenario_name", ["bursty_multi_tenant", "shared_prefix_overload"]
    )
    def test_identical_to_bare_engine(
        self, model, scenario_name, policy_name
    ):
        scenario = SCENARIOS[scenario_name]
        trace = scenario.trace()
        policy_factory = build_policy_factory(
            policy_name, prompt_length=32, cache_ratio=0.6
        )
        factory = scenario_factory(model, scenario, policy_factory)

        engine = factory()
        ids = submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}

        with EngineCluster(factory, num_workers=2, mode="process") as cluster:
            assert submit_trace(cluster, trace) == ids
            results = {r.request_id: r for r in cluster.run()}
        assert set(results) == set(reference) == set(ids)
        for rid in ids:
            assert results[rid].finish_reason == reference[rid].finish_reason
            assert results[rid].token_ids == reference[rid].token_ids
        assert not shm_entries("repro-cluster-")

    def test_single_worker_matches_lockstep_cluster(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()
        factory = scenario_factory(model, scenario)

        lockstep = EngineCluster(factory, num_workers=1)
        ids = submit_trace(lockstep, trace)
        reference = {r.request_id: r for r in lockstep.run()}

        with EngineCluster(factory, num_workers=1, mode="process") as cluster:
            submit_trace(cluster, trace)
            results = {r.request_id: r for r in cluster.run()}
        for rid in ids:
            assert results[rid].token_ids == reference[rid].token_ids
            assert len(results[rid].policy_stats) == len(
                reference[rid].policy_stats
            )
            for a, b in zip(
                reference[rid].policy_stats, results[rid].policy_stats
            ):
                assert a.prefill_tokens == b.prefill_tokens
                assert a.decode_steps == b.decode_steps
                assert a.total_attended == b.total_attended
                assert a.total_evictions == b.total_evictions

    def test_on_token_stream_ordered_per_request(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()[:8]
        factory = scenario_factory(model, scenario)
        streamed = {}

        def on_token(rid, token_id, num_generated):
            streamed.setdefault(rid, []).append((num_generated, token_id))

        with EngineCluster(
            factory, num_workers=2, mode="process", on_token=on_token
        ) as cluster:
            ids = submit_trace(cluster, trace)
            results = {r.request_id: r for r in cluster.run()}
        for rid in ids:
            counts = [n for n, _ in streamed.get(rid, [])]
            assert counts == list(range(1, len(counts) + 1)), (
                f"{rid}: stream arrived out of order"
            )
            assert [t for _, t in streamed[rid]] == results[rid].token_ids


# ----------------------------------------------------------------------
# Shared-memory lifecycle across shutdown / drain / crash / exception
# ----------------------------------------------------------------------
class TestSharedMemoryLifecycle:
    def test_shutdown_unlinks_everything(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(factory, num_workers=2, mode="process")
        wait_for_hello(cluster)
        live = shm_entries("repro-cluster-")
        # telemetry + 2 layers x (keys, values) per worker.
        assert len(live) == 2 * (1 + 2 * LAYERS)
        submit_trace(cluster, scenario.trace()[:6])
        responses = cluster.shutdown()
        assert len(responses) == 6
        assert not shm_entries("repro-cluster-")
        # Idempotent.
        assert len(cluster.shutdown()) == 6

    def test_drain_keeps_workers_serving(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(factory, num_workers=2, mode="process")
        try:
            wait_for_hello(cluster)
            submit_trace(cluster, scenario.trace()[:4])
            first = cluster.drain()
            assert len(first) == 4
            # Segments persist across drain; the cluster accepts more work.
            assert shm_entries("repro-cluster-")
            rid = cluster.submit(_req([1, 2, 3], rid="after-drain"))
            cluster.drain()
            assert cluster.response(rid).finish_reason != "error"
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")

    def test_worker_crash_segments_swept(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(factory, num_workers=2, mode="process")
        try:
            wait_for_hello(cluster)
            victim_prefix = cluster.workers[0].arena_prefix
            assert shm_entries(victim_prefix)
            kill_worker(cluster, 0)
            # The pump notices (no farewell) and reaps: the parent sweep
            # must remove the dead generation's segments even though the
            # child never ran its own unlink.
            deadline = time.monotonic() + 30.0
            while cluster.workers[0].alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not cluster.workers[0].alive
            assert not shm_entries(victim_prefix)
            # Survivor still serves.
            rid = cluster.submit(_req([5, 6, 7], rid="post-crash"))
            cluster.drain()
            assert cluster.response(rid).finish_reason != "error"
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")

    def test_parent_exception_context_manager(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        with pytest.raises(RuntimeError, match="parent blew up"):
            with EngineCluster(
                factory, num_workers=2, mode="process"
            ) as cluster:
                wait_for_hello(cluster)
                assert shm_entries("repro-cluster-")
                cluster.submit(_req([1, 2, 3]))
                raise RuntimeError("parent blew up")
        assert not shm_entries("repro-cluster-")


    def test_cluster_starts_no_resource_tracker(self):
        """Neither the parent nor a worker may start a ``multiprocessing``
        resource tracker: segments are unlinked explicitly, so a tracker
        has nothing to do and outlives the workers that started it.

        The cluster runs in a fresh interpreter (a tracker this test
        process started earlier would be reused by forked workers and
        hide new ones); this test scans the process table while that
        interpreter sits after ``shutdown()``."""
        before = resource_tracker_pids()
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.Popen(
            [sys.executable, "-c", TRACKER_PROBE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120.0)
            assert ready, "probe cluster did not finish within 120 s"
            assert proc.stdout.readline().strip() == "shut down"
            appeared = resource_tracker_pids() - before
            proc.communicate(input="\n", timeout=60.0)
            assert proc.returncode == 0
            assert not appeared, f"resource tracker pids {sorted(appeared)}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            SharedArenaAllocator.unlink_by_prefix(f"repro-cluster-{proc.pid}-")


TRACKER_PROBE = """
import sys
from repro.core.kv_pool import KVPoolGroup
from repro.llm.config import ModelConfig
from repro.llm.model import TransformerLM
from repro.serving import BatchedEngine, EngineCluster, ServingRequest

model = TransformerLM(ModelConfig(
    vocab_size=89, model_dim=16, num_heads=2, head_dim=8, num_layers=2,
    mlp_hidden_dim=24, seed=5,
))

def factory():
    pools = KVPoolGroup(2, 8, 2, 8, num_pages=32)
    return BatchedEngine(model, max_batch_size=2, kv_pools=pools)

cluster = EngineCluster(factory, num_workers=2, mode="process")
for i in range(4):
    cluster.submit(ServingRequest(prompt_ids=[i + 1, 2, 3, 4], max_new_tokens=3))
assert all(r.finish_reason == "length" for r in cluster.run())
cluster.shutdown()
print("shut down", flush=True)
sys.stdin.readline()
"""


def resource_tracker_pids():
    """Pids whose argv is CPython's resource-tracker launch line,
    ``python -B -c "from multiprocessing.resource_tracker import main…"``
    (argv match, not substring: a shell grepping for it never matches)."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue  # exited while we scanned
        if (
            len(argv) >= 4
            and os.path.basename(argv[0]).startswith(b"python")
            and argv[1:3] == [b"-B", b"-c"]
            and argv[3].startswith(
                b"from multiprocessing.resource_tracker import main"
            )
        ):
            pids.add(int(entry))
    return pids


# ----------------------------------------------------------------------
# Worker death: worker_died parity + submit-time rerouting (satellite fix)
# ----------------------------------------------------------------------
class TestProcessWorkerDeath:
    def test_sigkill_midflight_worker_died_parity(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        trace = scenario.trace()
        factory = scenario_factory(model, scenario)

        engine = factory()
        submit_trace(engine, trace)
        reference = {r.request_id: r for r in engine.run()}

        cluster = EngineCluster(
            factory, num_workers=2, mode="process", router="round_robin"
        )
        try:
            wait_for_hello(cluster)
            ids = submit_trace(cluster, trace)
            kill_worker(cluster, 0)
            responses = {r.request_id: r for r in cluster.drain()}
            assert set(responses) == set(ids)
            died = [
                r
                for r in responses.values()
                if r.error_cause == "worker_died"
            ]
            completed = [
                r
                for r in responses.values()
                if r.finish_reason != "error"
            ]
            assert len(died) + len(completed) == len(ids)
            # Unstarted requests were rerouted, so fewer died than the
            # round-robin half the victim was dealt.
            assert len(died) <= len(ids) // 2
            stats = cluster.stats()
            assert stats["dead_workers"] == [0]
            assert stats["resubmissions"] > 0 or len(died) == len(ids) // 2
            for response in completed:
                assert response.token_ids == reference[
                    response.request_id
                ].token_ids
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")

    def test_submit_routes_around_already_dead_worker(self, model):
        """Regression (satellite): submit right after a worker vanishes
        must not strand the request on the corpse waiting for the next
        health sweep."""
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(
            factory, num_workers=2, mode="process", router="round_robin"
        )
        try:
            wait_for_hello(cluster)
            kill_worker(cluster, 0)
            # No sleep: the pump may not have noticed yet.  Round-robin
            # would deal half of these to worker 0; the submit-time probe
            # must route them all to the survivor.
            rids = [
                cluster.submit(_req([3 + i, 5, 7], rid=f"dead-route-{i}"))
                for i in range(6)
            ]
            responses = {r.request_id: r for r in cluster.drain()}
            assert set(responses) == set(rids)
            for rid in rids:
                assert responses[rid].finish_reason != "error", (
                    rid,
                    responses[rid].error_cause,
                )
            assert cluster.stats()["dead_workers"] == [0]
        finally:
            cluster.shutdown()

    def test_all_workers_dead_fails_closed(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(factory, num_workers=1, mode="process")
        try:
            wait_for_hello(cluster)
            kill_worker(cluster, 0)
            with pytest.raises(RuntimeError, match="no healthy workers"):
                cluster.submit(_req([1, 2, 3]))
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")


# ----------------------------------------------------------------------
# Restart supervision (satellite)
# ----------------------------------------------------------------------
class TestRestartSupervision:
    def test_process_worker_respawns(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(
            factory,
            num_workers=2,
            mode="process",
            config=RouterConfig(restart_workers=True, max_restarts=2),
        )
        try:
            wait_for_hello(cluster)
            kill_worker(cluster, 0)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                worker = cluster.workers[0]
                if (
                    worker.restarts >= 1
                    and worker.alive
                    and worker.process is not None
                    and worker.process.is_alive()
                ):
                    break
                time.sleep(0.05)
            worker = cluster.workers[0]
            assert worker.alive and worker.restarts == 1
            assert worker.process.is_alive()
            stats = cluster.stats()
            assert stats["restarts"] == 1
            assert stats["alive_workers"] == 2
            assert stats["dead_workers"] == []
            # The respawned generation serves requests again.
            ids = submit_trace(cluster, scenario.trace()[:8])
            responses = {r.request_id: r for r in cluster.drain()}
            assert all(
                responses[rid].finish_reason != "error" for rid in ids
            )
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")

    def test_max_restarts_exhausted_stays_dead(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(
            factory,
            num_workers=2,
            mode="process",
            config=RouterConfig(restart_workers=True, max_restarts=1),
        )
        try:
            wait_for_hello(cluster, timeout=60.0)
            # First kill: respawned as generation 1.
            kill_worker(cluster, 0)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                worker = cluster.workers[0]
                # process.is_alive() distinguishes the respawn from the
                # joined generation-0 corpse mid-restart.
                if (
                    worker.restarts == 1
                    and worker.alive
                    and worker.process is not None
                    and worker.process.is_alive()
                ):
                    break
                time.sleep(0.05)
            worker = cluster.workers[0]
            assert worker.alive and worker.restarts == 1
            assert worker.hello.wait(60.0), "respawn never said hello"
            # Second kill: the restart budget is spent — stays dead.
            kill_worker(cluster, 0)
            deadline = time.monotonic() + 60.0
            while cluster.workers[0].alive and time.monotonic() < deadline:
                time.sleep(0.05)
            worker = cluster.workers[0]
            assert not worker.alive
            assert worker.restarts == 1
            assert cluster.stats()["alive_workers"] == 1
            # Work still lands on the survivor.
            rid = cluster.submit(_req([1, 2, 3], rid="survivor"))
            cluster.drain()
            assert cluster.response(rid).finish_reason != "error"
        finally:
            cluster.shutdown()
        assert not shm_entries("repro-cluster-")

    def test_threaded_worker_restart(self, model):
        """Thread-mode supervision: a crashing engine is replaced by a
        fresh ``engine_factory()`` build."""
        scenario = SCENARIOS["bursty_multi_tenant"]
        built = []

        class FailingOnce(BatchedEngine):
            def step(self):
                if self.step_count >= 4:
                    raise RuntimeError("injected crash")
                return super().step()

        def factory():
            cls = FailingOnce if not built else BatchedEngine
            engine = cls(
                model,
                max_batch_size=scenario.max_batch_size,
                kv_pools=KVPoolGroup(
                    LAYERS,
                    page_size=scenario.page_size,
                    num_heads=HEADS,
                    head_dim=HEAD_DIM,
                    num_pages=scenario.num_pages,
                ),
                scheduler_policy=SchedulerPolicy(
                    preemption=True, admission="optimistic"
                ),
            )
            built.append(engine)
            return engine

        cluster = EngineCluster(
            factory,
            num_workers=2,
            router="round_robin",
            config=RouterConfig(restart_workers=True, max_restarts=2),
        )
        ids = submit_trace(cluster, scenario.trace())
        responses = {r.request_id: r for r in cluster.run()}
        assert set(responses) == set(ids)
        stats = cluster.stats()
        assert stats["restarts"] >= 1
        assert stats["alive_workers"] == 2
        assert stats["dead_workers"] == []
        # Started requests on the crashed generation still report
        # worker_died; everything else completed.
        for response in responses.values():
            assert (
                response.finish_reason != "error"
                or response.error_cause == "worker_died"
            )


# ----------------------------------------------------------------------
# Admission backpressure (satellite)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_lockstep_rejects_over_max_pending(self, model):
        """Deterministic check: without stepping, pending grows
        monotonically, so submissions past the bound are rejected."""
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        cluster = EngineCluster(
            factory,
            num_workers=2,
            config=RouterConfig(max_pending=4),
        )
        rids = [
            cluster.submit(_req([1 + i, 2, 3], rid=f"bp-{i}"))
            for i in range(10)
        ]
        rejected = [
            rid
            for rid in rids
            if (resp := cluster.response(rid)) is not None
            and resp.error_cause == "cluster_overloaded"
        ]
        assert len(rejected) == 6
        assert cluster.stats()["overload_rejections"] == 6
        responses = {r.request_id: r for r in cluster.run()}
        # Rejected ids still get their response through the normal
        # channel, in submission order.
        assert set(responses) == set(rids)
        for rid in rids:
            response = responses[rid]
            if rid in rejected:
                assert response.error_cause == "cluster_overloaded"
                assert response.finish_reason == "error"
            else:
                assert response.finish_reason != "error"

    def test_process_mode_backpressure(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        with EngineCluster(
            factory,
            num_workers=2,
            mode="process",
            config=RouterConfig(max_pending=2),
        ) as cluster:
            wait_for_hello(cluster)
            rids = [
                cluster.submit(
                    _req([1 + i, 2, 3], rid=f"pbp-{i}", max_new_tokens=12)
                )
                for i in range(12)
            ]
            responses = {r.request_id: r for r in cluster.drain()}
            assert set(responses) == set(rids)
            rejected = [
                r
                for r in responses.values()
                if r.error_cause == "cluster_overloaded"
            ]
            accepted = [
                r for r in responses.values() if r.finish_reason != "error"
            ]
            # A 12-deep instant burst against max_pending=2 must shed.
            assert rejected, "expected overload rejections"
            assert len(rejected) + len(accepted) == len(rids)
            assert (
                cluster.stats()["overload_rejections"] == len(rejected)
            )

    def test_max_pending_validated(self, model):
        with pytest.raises(ValueError):
            RouterConfig(max_pending=0)
        with pytest.raises(ValueError):
            RouterConfig(max_restarts=-1)


# ----------------------------------------------------------------------
# Process-mode surface
# ----------------------------------------------------------------------
class TestProcessSurface:
    def test_step_refused(self, model):
        factory = scenario_factory(model, SCENARIOS["bursty_multi_tenant"])
        with EngineCluster(factory, num_workers=1, mode="process") as cluster:
            with pytest.raises(RuntimeError, match="lockstep"):
                cluster.step()

    def test_unpicklable_policy_factory_rejected(self, model):
        factory = scenario_factory(model, SCENARIOS["bursty_multi_tenant"])
        with EngineCluster(factory, num_workers=1, mode="process") as cluster:

            def unpicklable(num_heads, head_dim, _lock=threading.Lock()):
                raise AssertionError("never called")

            with pytest.raises(ValueError, match="picklable"):
                cluster.submit(
                    ServingRequest(
                        prompt_ids=[1, 2, 3],
                        max_new_tokens=2,
                        policy_factory=unpicklable,
                    )
                )
            # The rejected request left no trace: same id space reusable.
            assert cluster.drain() == []

    def test_invalid_request_reported_as_error_response(self, model):
        factory = scenario_factory(model, SCENARIOS["bursty_multi_tenant"])
        with EngineCluster(factory, num_workers=1, mode="process") as cluster:
            rid = cluster.submit(_req([VOCAB + 7], rid="bad-vocab"))
            responses = {r.request_id: r for r in cluster.drain()}
            assert responses[rid].finish_reason == "error"
            assert responses[rid].error_cause == "invalid_request"

    def test_invalid_mode_rejected(self, model):
        factory = scenario_factory(model, SCENARIOS["bursty_multi_tenant"])
        with pytest.raises(ValueError, match="mode"):
            EngineCluster(factory, num_workers=1, mode="fiber")

    def test_load_merges_worker_telemetry(self, model):
        scenario = SCENARIOS["bursty_multi_tenant"]
        factory = scenario_factory(model, scenario)
        with EngineCluster(factory, num_workers=2, mode="process") as cluster:
            wait_for_hello(cluster)
            ids = submit_trace(cluster, scenario.trace()[:6])
            load = cluster.load()
            assert load["queued"] == len(ids)
            cluster.drain()
            stats = cluster.stats()
            assert stats["mode"] == "process"
            assert stats["cluster"]["completed"] == len(ids)
            per_worker = [w["completed"] for w in stats["workers"]]
            assert sum(per_worker) == len(ids)

    def test_shutdown_refuses_new_submissions(self, model):
        factory = scenario_factory(model, SCENARIOS["bursty_multi_tenant"])
        cluster = EngineCluster(factory, num_workers=1, mode="process")
        cluster.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            cluster.submit(_req([1, 2, 3]))
