"""Property-based checks of the engine's bounded-concurrency contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from tests.conftest import score_multiset

score_value = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)


@st.composite
def parallel_instances(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    rows = draw(
        st.lists(
            st.lists(score_value, min_size=2, max_size=2),
            min_size=n,
            max_size=n,
        )
    )
    dataset = Dataset(np.array(rows, dtype=float))
    fn = draw(st.sampled_from([Min(2), Avg(2)]))
    k = draw(st.integers(min_value=1, max_value=n))
    c = draw(st.integers(min_value=1, max_value=8))
    d0 = draw(st.sampled_from([0.0, 0.5, 1.0]))
    d1 = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return dataset, fn, k, c, (d0, d1)


class TestParallelContractsFuzz:
    @settings(max_examples=60, deadline=None)
    @given(parallel_instances())
    def test_none_mode_bounded_overhead_vs_sequential(self, instance):
        """The none-mode cost contract, in its *sound* form.

        The old claim -- total cost *equals* the sequential plan's -- is
        falsifiable: the wave planner gives every popped top-k target its
        policy-selected access, while the sequential engine works only on
        the heap top, so positions 2..k of a wave can be accesses the
        sequential run proves unnecessary (see the pinned reproducer in
        ``tests/test_parallel.py::TestNoneModeCostParity``). What *is*
        guaranteed: exact equality when every wave has one slot or one
        target (``c == 1`` or ``k == 1``), and otherwise at most
        ``min(c, k) - 1`` speculative accesses per wave, each bounded by
        the dearest access price.
        """
        dataset, fn, k, c, depths = instance

        mw_seq = Middleware.over(dataset, CostModel.uniform(2))
        seq = FrameworkNC(mw_seq, fn, k, SRGPolicy(depths)).run()

        mw_par = Middleware.over(dataset, CostModel.uniform(2))
        outcome = FrameworkNC(
            mw_par, fn, k, SRGPolicy(depths), concurrency=c
        ).execute()

        # Exact answer (score multiset; ties may pick other members).
        assert score_multiset(outcome.result.ranking) == score_multiset(
            seq.ranking
        )
        # Cost parity: exact at width one, boundedly above otherwise.
        seq_cost = mw_seq.stats.total_cost()
        if c == 1 or k == 1:
            assert outcome.total_cost == seq_cost
        else:
            c_max = 1.0  # CostModel.uniform(2): every access costs 1
            slack = (min(c, k) - 1) * c_max * outcome.waves
            assert outcome.total_cost <= seq_cost + slack
        # Elapsed-time sandwich: cost/c <= elapsed <= cost.
        assert outcome.elapsed <= outcome.total_cost + 1e-9
        assert outcome.elapsed >= outcome.total_cost / c - 1e-9
        # Wave accounting consistent.
        assert outcome.waves <= mw_par.stats.total_accesses

    @settings(max_examples=30, deadline=None)
    @given(parallel_instances())
    def test_eager_mode_still_exact(self, instance):
        dataset, fn, k, c, depths = instance
        mw = Middleware.over(dataset, CostModel.uniform(2))
        outcome = FrameworkNC(
            mw, fn, k, SRGPolicy(depths), concurrency=c, speculation="eager"
        ).execute()
        oracle = dataset.topk(fn, k)
        assert score_multiset(outcome.result.ranking) == score_multiset(oracle)
