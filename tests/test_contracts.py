"""Runtime contract checking (repro.contracts, docs/LINTS.md).

Healthy runs must pass with the checker armed and nonzero check counts;
deliberately broken components -- a source violating its sorted order, a
source returning out-of-range scores, a non-monotone scoring function --
must raise ContractViolationError instead of silently corrupting the
answer.
"""

from typing import Sequence

import pytest

from repro.algorithms import NRA, TA
from repro.bench.harness import nc_with_dummy_planner
from repro.contracts import ContractChecker, env_enabled, resolve_checker
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.generators import uniform
from repro.exceptions import ContractViolationError
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.sampling import dummy_uniform_sample
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring import monotonicity
from repro.scoring.functions import Avg, Min, ScoringFunction
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.simulated import SimulatedSource


class OutOfOrderSource(SimulatedSource):
    """A 'sorted' source that actually delivers in object-id order.

    The scores it serves are correct, but the stream is not
    non-increasing -- the Section 3.2 sorted-access contract is broken,
    so every unseen-object bound derived from its l_i is unsound.
    """

    def sorted_access(self):
        if self._cursor >= self.size:
            self._last_seen = 0.0
            return None
        obj = self._cursor
        self._cursor += 1
        score = self._dataset.score(obj, self._predicate)
        self._last_seen = score if self._cursor < self.size else 0.0
        return obj, score


class OutOfRangeSource(SimulatedSource):
    """A source whose random accesses return scores above 1."""

    def random_access(self, obj: int) -> float:
        return super().random_access(obj) + 1.5


class NonMonotone(ScoringFunction):
    """F = 1 - avg: decreasing, so Theorem 1's bounds are meaningless."""

    def __init__(self, arity: int):
        super().__init__(arity, f"antiavg[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        return 1.0 - sum(scores) / self.arity


class SpyChecker(ContractChecker):
    """Counts the engine's per-access contract calls."""

    def __init__(self) -> None:
        super().__init__()
        self.thresholds = 0
        self.intervals = 0

    def observe_threshold(self, value: float) -> None:
        self.thresholds += 1
        super().observe_threshold(value)

    def check_interval(self, obj: object, lower: float, upper: float) -> None:
        self.intervals += 1
        super().check_interval(obj, lower, upper)


def _middleware(data, contracts=True, source_cls=SimulatedSource, **kwargs):
    costs = CostModel.uniform(data.m)
    sources = [source_cls(data, i) for i in range(data.m)]
    return Middleware(sources, costs, contracts=contracts, **kwargs)


class TestCheckerUnits:
    def test_last_seen_must_not_rise(self):
        checker = ContractChecker()
        checker.observe_last_seen(0, 0.8)
        checker.observe_last_seen(0, 0.5)  # falling is fine
        with pytest.raises(ContractViolationError, match="rose"):
            checker.observe_last_seen(0, 0.7)

    def test_sorted_stream_must_be_nonincreasing(self):
        checker = ContractChecker()
        checker.observe_sorted(1, 0.9, 0.9)
        with pytest.raises(ContractViolationError, match="non-increasing"):
            checker.observe_sorted(1, 0.95, 0.95)

    def test_threshold_must_not_rise(self):
        checker = ContractChecker()
        checker.observe_threshold(0.6)
        with pytest.raises(ContractViolationError, match="threshold rose"):
            checker.observe_threshold(0.61)

    def test_scores_must_be_in_unit_interval(self):
        checker = ContractChecker()
        checker.check_score(0, 7, 1.0)
        with pytest.raises(ContractViolationError, match="outside"):
            checker.check_score(0, 7, 1.5)
        with pytest.raises(ContractViolationError, match="outside"):
            checker.check_score(0, None, -0.2)

    def test_intervals_must_be_ordered_and_bounded(self):
        checker = ContractChecker()
        checker.check_interval(3, 0.2, 0.8)
        with pytest.raises(ContractViolationError, match="interval"):
            checker.check_interval(3, 0.8, 0.2)
        with pytest.raises(ContractViolationError, match="interval"):
            checker.check_interval(3, 0.5, 1.5)

    def test_epsilon_slack_tolerates_roundoff(self):
        checker = ContractChecker()
        checker.observe_threshold(0.5)
        checker.observe_threshold(0.5 + 1e-12)  # round-off, not a rise

    def test_reset_clears_history(self):
        checker = ContractChecker()
        checker.observe_threshold(0.3)
        checker.reset()
        checker.observe_threshold(0.9)  # fresh run: no previous threshold
        assert checker.checks == 1

    def test_probe_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            ContractChecker(probe_trials=-1)


class TestResolution:
    def test_resolve_bool_and_instance(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert resolve_checker(False) is None
        assert resolve_checker(None) is None
        assert isinstance(resolve_checker(True), ContractChecker)
        checker = ContractChecker(probe_trials=7)
        assert resolve_checker(checker) is checker

    def test_env_switch_arms_default_off_call_sites(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert env_enabled()
        assert isinstance(resolve_checker(False), ContractChecker)
        data = uniform(20, 2, seed=0)
        mw = Middleware.over(data, CostModel.uniform(2))
        assert mw.contracts is not None

    def test_env_switch_off_values(self, monkeypatch):
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv("REPRO_CONTRACTS", value)
            assert not env_enabled()
            assert resolve_checker(False) is None


class TestHealthyRuns:
    @pytest.mark.parametrize(
        "algo",
        [TA, NRA, lambda: nc_with_dummy_planner(sample_size=60)],
        ids=["TA", "NRA", "NC"],
    )
    def test_clean_run_passes_and_counts_checks(self, algo):
        data = uniform(60, 2, seed=11)
        plain = algo().run(_middleware(data, contracts=False), Avg(2), 5)
        mw = _middleware(data)
        checked = algo().run(mw, Avg(2), 5)
        assert checked.objects == plain.objects
        assert checked.scores == plain.scores
        assert mw.contracts is not None and mw.contracts.checks > 0

    @pytest.mark.parametrize(
        "engine",
        [FrameworkNC, lambda *args: FrameworkNC(*args, concurrency=2)],
        ids=["sequential", "wave-c2"],
    )
    def test_engine_checks_every_access(self, engine):
        data = uniform(200, 3, seed=1)
        spy = SpyChecker()
        mw = _middleware(data, contracts=spy)
        engine(mw, Avg(3), 5, SRGPolicy([0.5] * 3)).run()
        assert spy.thresholds == mw.stats.total_accesses > 0
        assert spy.intervals > 0

    def test_middleware_reset_resets_checker(self):
        data = uniform(40, 2, seed=3)
        mw = _middleware(data)
        first = TA().run(mw, Min(2), 4)
        mw.reset()
        second = TA().run(mw, Min(2), 4)
        assert first.objects == second.objects


class TestBrokenComponentsAreCaught:
    @pytest.mark.parametrize("algo", [TA, NRA], ids=["TA", "NRA"])
    def test_out_of_order_source_is_caught(self, algo):
        data = uniform(60, 2, seed=11)
        mw = _middleware(data, source_cls=OutOfOrderSource)
        with pytest.raises(ContractViolationError):
            algo().run(mw, Avg(2), 5)

    def test_out_of_order_source_passes_unchecked(self, monkeypatch):
        # The same lying source goes *unnoticed* without contracts: that
        # silence is exactly what the checker exists to remove.
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        data = uniform(60, 2, seed=11)
        mw = _middleware(data, contracts=False, source_cls=OutOfOrderSource)
        TA().run(mw, Avg(2), 5)

    def test_out_of_range_score_is_caught(self):
        data = uniform(30, 2, seed=5)
        mw = _middleware(data, source_cls=OutOfRangeSource)
        with pytest.raises(ContractViolationError, match="outside"):
            TA().run(mw, Avg(2), 3)

    def test_non_monotone_scoring_function_probed_before_access(self):
        data = uniform(50, 2, seed=9)
        mw = _middleware(data)
        with pytest.raises(ContractViolationError, match="monotonicity"):
            TA().run(mw, NonMonotone(2), 5)
        # The probe fired before any access was charged.
        assert mw.stats.total_accesses == 0

    def test_probe_can_be_disabled(self):
        data = uniform(30, 2, seed=9)
        mw = _middleware(data, contracts=ContractChecker(probe_trials=0))
        # Without the probe the run proceeds (and its *bound* contracts
        # still apply); NonMonotone stays within [0, 1] here so the run
        # completes -- wrongly, which is why the probe defaults to on.
        TA().run(mw, NonMonotone(2), 3)


class TestProbeMemo:
    """The monotonicity probe runs once per function object, process-wide."""

    def test_armed_plan_probes_each_function_once(self, monkeypatch):
        # Every cross-checked plan runs the reference engine over a fresh
        # middleware, so a fresh checker; none may re-probe the same F.
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        probed = []
        check_monotone = monotonicity.check_monotone

        def counting(fn, *args, **kwargs):
            probed.append(fn)
            return check_monotone(fn, *args, **kwargs)

        monkeypatch.setattr(monotonicity, "check_monotone", counting)
        text = "SELECT * FROM r ORDER BY min(0.89*p0, 0.96*p1, 0.99*p2) STOP AFTER 5"
        fn, _order = compile_expression(
            parse_query(text).expr, schema=("p0", "p1", "p2")
        )
        plan = NCOptimizer().plan(
            dummy_uniform_sample(3, 50, 0),
            fn,
            5,
            400,
            CostModel((1.0, 1.0, 2.0), (4.0, 10.0, 6.0)),
        )
        assert plan.notes["reference_runs"] == plan.notes["kernel_runs"] > 1
        assert probed.count(fn) == 1
        assert all(probed.count(each) == 1 for each in probed)

    def test_failed_probe_is_never_memoized(self):
        fn = NonMonotone(2)
        for _ in range(2):
            mw = _middleware(uniform(50, 2, seed=9))
            with pytest.raises(ContractViolationError, match="monotonicity"):
                TA().run(mw, fn, 5)
            assert mw.stats.total_accesses == 0
