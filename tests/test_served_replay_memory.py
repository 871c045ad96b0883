"""Served drift replans answer from one replay memory per planning sample.

A server's optimizer keeps one :class:`SampleIndex` per planning sample,
so initial searches, drift re-searches and their remaining-cost
projections answer plans from each other's comparison boxes. These tests
serve the same faulty, drifting workload through a server that shares
and one whose optimizer builds a fresh index for every search (the
sharing-free behaviour), and hold them byte for byte to each other:
responses, replan summaries, result metadata and every metric but the
box-answer counter, which may only rise.
"""

import io
import json

import pytest

import repro.optimizer.estimator as estimator_module
from repro.data.generators import uniform
from repro.faults.injector import FaultProfile, faulty_sources_for
from repro.faults.retry import RetryPolicy
from repro.optimizer.kernel import SampleIndex
from repro.optimizer.optimizer import NCOptimizer
from repro.service.protocol import serve_stream
from repro.service.server import QueryServer, ServerConfig
from repro.sources.cache import SourceCache
from repro.sources.cost import CostModel
from repro.sources.latency import ConstantLatency

SCHEMA = ("p0", "p1", "p2")
ASSUMED = CostModel((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
# Probes on p0 really cost 40x the assumed price: monitors see drift.
TRUE = CostModel((1.0, 1.0, 1.0), (40.0, 1.0, 1.0))
TEXTS = [
    "SELECT * FROM r ORDER BY min(0.9*p0, p1, 0.95*p2) STOP AFTER 10",
    "SELECT * FROM r ORDER BY avg(p0, 0.9*p1, p2) STOP AFTER 10",
    "SELECT * FROM r ORDER BY 0.3*p0 + 0.35*p1 + 0.3*p2 STOP AFTER 10",
    "SELECT * FROM r ORDER BY max(p0, 0.85*p1, p2) STOP AFTER 5",
]
BOX_HITS = "repro_estimator_box_hits_total"


class FreshIndexOptimizer(NCOptimizer):
    """The optimizer without a replay memory: a fresh index per search."""

    def index_for(self, sample, cost_model, no_wild_guesses=True):
        return SampleIndex(sample, cost_model, no_wild_guesses=no_wild_guesses)


class NoShareServer(QueryServer):
    """A server whose searches and projections share no comparison box."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._planner.optimizer = FreshIndexOptimizer(metrics=self.metrics)


def pool(n, seed):
    sources = faulty_sources_for(
        uniform(n, 3, seed=seed),
        FaultProfile.transient(0.05),
        seed=seed,
        latency_model=ConstantLatency(TRUE),
    )
    return SourceCache(sources, ttl=1)


def call(server, request):
    out = io.StringIO()
    serve_stream(server, io.StringIO(json.dumps(request) + "\n"), out)
    return out.getvalue()


def serve(server_cls):
    """Two rounds of every text, a reload to another pool size, again."""
    server = server_cls(
        ASSUMED,
        cache=pool(300, 7),
        schema=SCHEMA,
        config=ServerConfig(
            max_in_flight=4,
            sample_size=50,
            query_concurrency=2,
            retry_policy=RetryPolicy(max_attempts=8, seed=7),
            replan="drift",
        ),
    )
    lines = []
    for n in (300, 180):
        if n != 300:
            # Another pool size: another sample_k for every text.
            server.reload(cache=pool(n, 8))
        for text in TEXTS * 2:
            submitted = call(server, {"op": "submit", "query": text})
            session = json.loads(submitted)["session"]
            lines += [submitted, call(server, {"op": "result", "session": session})]
    return server, lines


def without_box_hits(stats):
    counters = stats["metrics"]["counters"]
    hits = sum(v for key, v in counters.items() if key.startswith(BOX_HITS))
    stats["metrics"]["counters"] = {
        key: v for key, v in counters.items() if not key.startswith(BOX_HITS)
    }
    return stats, hits


class TestServedReplayMemory:
    def test_sharing_changes_nothing_but_box_answers(self):
        shared, shared_lines = serve(QueryServer)
        alone, alone_lines = serve(NoShareServer)
        assert shared_lines == alone_lines
        results = [json.loads(line) for line in shared_lines[1::2]]
        assert all(r["ok"] for r in results)
        # The workload does drift: re-searches ran.
        assert sum(r["result"]["metadata"]["replan"]["searches"] for r in results)
        shared_stats, shared_hits = without_box_hits(shared.stats())
        alone_stats, alone_hits = without_box_hits(alone.stats())
        assert json.dumps(shared_stats, sort_keys=True) == json.dumps(
            alone_stats, sort_keys=True
        )
        assert shared_hits > alone_hits

    @pytest.mark.parametrize("cap", [1, 7])
    def test_the_store_never_exceeds_the_cap(self, monkeypatch, cap):
        held = []
        store = SampleIndex.store_box

        def counting(self, *args):
            store(self, *args)
            held.append(self.boxes_held)

        monkeypatch.setattr(estimator_module, "CACHE_SIZE", cap)
        monkeypatch.setattr(SampleIndex, "store_box", counting)
        _capped, capped_lines = serve(QueryServer)
        assert held and max(held) == cap
        # Evicting boxes changes no response either.
        monkeypatch.undo()
        _alone, alone_lines = serve(NoShareServer)
        assert capped_lines == alone_lines
