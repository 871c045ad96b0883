"""The whole-program rules: project model, dataflow provenance, RL101-RL104.

Fixtures build miniature ``repro`` package trees on disk (module names
resolve by walking ``__init__.py`` markers), trip each whole-program rule
through genuinely flow-sensitive paths -- aliased receivers, helper
returns, attribute stores, call chains -- and pin the clean
counterexamples. The suite ends with the self-checks CI runs: the pass
over ``src/repro`` must be clean and fast, and an injected violation must
fail it.
"""

import textwrap
import time

from repro.cli import main as cli_main
from repro.lint import run_lint
from repro.lint.core import ModuleContext, load_module
from repro.lint.deep import ProjectModel, module_name_for


def write_tree(tmp_path, files):
    """Materialize a fixture package tree; return the root path."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def project_findings(tmp_path, files, select=None):
    root = write_tree(tmp_path, files)
    return run_lint([root], select=select).findings


def pkg(files):
    """Add the ``__init__.py`` markers a repro-shaped fixture needs."""
    tree = dict(files)
    for rel in list(files):
        parts = rel.split("/")[:-1]
        for depth in range(1, len(parts) + 1):
            tree.setdefault("/".join(parts[:depth]) + "/__init__.py", "")
    return tree


class TestProjectModel:
    def test_module_names_walk_package_markers(self, tmp_path):
        write_tree(
            tmp_path,
            pkg({"repro/sources/middleware.py": "x = 1\n"}),
        )
        path = tmp_path / "repro" / "sources" / "middleware.py"
        assert module_name_for(path) == "repro.sources.middleware"

    def test_call_graph_and_witness_paths(self, tmp_path):
        files = pkg(
            {
                "repro/a.py": """
                from repro.b import helper

                def entry():
                    return helper()
                """,
                "repro/b.py": """
                def helper():
                    return leaf()

                def leaf():
                    return 1
                """,
            }
        )
        root = write_tree(tmp_path, files)
        modules = [
            m
            for m in (load_module(p) for p in sorted(root.rglob("*.py")))
            if isinstance(m, ModuleContext)
        ]
        project = ProjectModel(modules)
        parents = project.reachable_from(["repro.a.entry"])
        assert "repro.b.leaf" in parents
        assert project.witness_path(parents, "repro.b.leaf") == [
            "repro.a.entry",
            "repro.b.helper",
            "repro.b.leaf",
        ]

    def test_relative_imports_resolve_to_absolute_names(self, tmp_path):
        files = pkg(
            {
                "repro/determinism.py": """
                def derive_rng(seed):
                    return seed
                """,
                "repro/faults/retry.py": """
                from ..determinism import derive_rng

                def fresh():
                    return derive_rng(3)
                """,
            }
        )
        root = write_tree(tmp_path, files)
        modules = [load_module(p) for p in sorted(root.rglob("*.py"))]
        project = ProjectModel(modules)
        assert (
            "repro.determinism.derive_rng"
            in project.call_graph["repro.faults.retry.fresh"]
        )


class TestRL101SourceEscape:
    def test_aliased_raw_source_behind_middleware_name(self, tmp_path):
        # RL001's name heuristic trusts the receiver spelling "mw"; the
        # provenance engine knows the value is a raw source.
        files = pkg(
            {
                "repro/engine.py": """
                from repro.sources.simulated import SimulatedSource

                def run():
                    mw = SimulatedSource()
                    return mw.sorted_access()
                """
            }
        )
        findings = project_findings(tmp_path, files, select=["RL101"])
        assert [f.rule for f in findings] == ["RL101"]
        assert "raw source by provenance" in findings[0].message

    def test_source_list_escapes_into_algorithm_call(self, tmp_path):
        files = pkg(
            {
                "repro/algorithms/ta.py": """
                def run_ta(sources, k):
                    return sources, k
                """,
                "repro/driver.py": """
                from repro.algorithms.ta import run_ta
                from repro.sources.simulated import sources_for

                def main():
                    srcs = sources_for(None)
                    return run_ta(srcs, 2)
                """,
            }
        )
        findings = project_findings(tmp_path, files, select=["RL101"])
        assert [f.rule for f in findings] == ["RL101"]
        assert "escapes uncharged into repro.algorithms.ta.run_ta" in (
            findings[0].message
        )

    def test_middleware_wrapping_consumes_the_taint(self, tmp_path):
        files = pkg(
            {
                "repro/algorithms/ta.py": """
                def run_ta(sources, k):
                    return sources, k
                """,
                "repro/driver.py": """
                from repro.algorithms.ta import run_ta
                from repro.sources.middleware import Middleware
                from repro.sources.simulated import sources_for

                def main():
                    srcs = sources_for(None)
                    mw = Middleware(srcs)
                    return run_ta(mw, 2)
                """,
            }
        )
        assert project_findings(tmp_path, files, select=["RL101"]) == []


class TestRL102RngProvenance:
    def test_rng_threaded_through_two_calls_reaches_core(self, tmp_path):
        # The acceptance fixture: construction in one helper, identity
        # pass-through in another, escape into repro.core two calls
        # later. Only interprocedural summaries can connect them.
        files = pkg(
            {
                "repro/helpers.py": """
                import random

                def make_rng(seed):
                    return random.Random(seed)

                def pass_through(rng):
                    return rng
                """,
                "repro/core/framework.py": """
                def run(k, rng):
                    return k, rng
                """,
                "repro/app.py": """
                from repro.core.framework import run
                from repro.helpers import make_rng, pass_through

                def main():
                    rng = pass_through(make_rng(7))
                    return run(2, rng)
                """,
            }
        )
        findings = project_findings(tmp_path, files, select=["RL102"])
        escapes = [
            f for f in findings if "reaches repro.core.framework.run" in f.message
        ]
        assert len(escapes) == 1
        assert escapes[0].path.endswith("app.py")
        # The construction site itself is also flagged (helpers.py is
        # not a sanctioned randomness root).
        assert any(
            f.path.endswith("helpers.py")
            and "constructed outside repro.determinism" in f.message
            for f in findings
        )

    def test_rng_alias_stored_on_attribute(self, tmp_path):
        files = pkg(
            {
                "repro/engine.py": """
                import random

                class Engine:
                    def setup(self, seed):
                        r = random.Random(seed)
                        tmp = r
                        self.rng = tmp
                """
            }
        )
        findings = project_findings(tmp_path, files, select=["RL102"])
        stores = [f for f in findings if "stored on self.rng" in f.message]
        assert len(stores) == 1

    def test_derive_rng_idiom_is_clean(self, tmp_path):
        files = pkg(
            {
                "repro/determinism.py": """
                import random

                def derive_rng(seed):
                    return random.Random(seed)
                """,
                "repro/core/framework.py": """
                def run(k, rng):
                    return k, rng
                """,
                "repro/app.py": """
                from repro.core.framework import run
                from repro.determinism import derive_rng

                def main():
                    rng = derive_rng(5)
                    return run(2, rng)
                """,
            }
        )
        assert project_findings(tmp_path, files, select=["RL102"]) == []

    def test_refactored_faults_module_has_zero_false_positives(self):
        # The satellite fix routed the injector and retry jitter through
        # derive_rng; the provenance rule must agree they are sanctioned.
        report = run_lint(
            ["src/repro/faults", "src/repro/determinism.py"],
            select=["RL102"],
        )
        assert report.findings == []


class TestRL104ClockDiscipline:
    def test_wall_clock_reachable_from_virtual_time(self, tmp_path):
        # The RL002 waiver covers the spelling; reachability from the
        # virtual-time executor is a separate obligation.
        files = pkg(
            {
                "repro/util.py": """
                import time

                def stamp():
                    return time.time()  # repro-lint: ignore[RL002] -- bench only
                """,
                "repro/parallel/executor.py": """
                from repro.util import stamp

                class Executor:
                    def tick(self):
                        return stamp()
                """,
            }
        )
        findings = project_findings(tmp_path, files)
        rules = {f.rule for f in findings}
        assert "RL104" in rules
        assert "RL002" not in rules  # the per-line waiver held
        rl104 = [f for f in findings if f.rule == "RL104"][0]
        assert "repro.parallel.executor.Executor.tick -> repro.util.stamp" in (
            rl104.message
        )

    def test_unreachable_wall_clock_not_flagged_by_rl104(self, tmp_path):
        files = pkg(
            {
                "repro/util.py": """
                import time

                def stamp():
                    return time.time()  # repro-lint: ignore[RL002] -- bench only
                """,
                "repro/parallel/executor.py": """
                class Executor:
                    def tick(self):
                        return 0
                """,
            }
        )
        assert project_findings(tmp_path, files, select=["RL104"]) == []


class TestSelfLint:
    def test_pass_is_clean_on_the_library(self):
        report = run_lint(["src/repro"])
        assert report.ok, [f.format() for f in report.findings]

    def test_pass_stays_within_wall_time_budget(self):
        start = time.perf_counter()
        run_lint(["src/repro"])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"lint pass took {elapsed:.1f}s (budget 30s)"

    def test_injected_violation_fails_the_pass(self, tmp_path, capsys):
        # A fresh RL102 violation next to the clean library exits nonzero.
        extra = tmp_path / "repro" / "rogue.py"
        extra.parent.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        extra.write_text(
            "import random\n\n\ndef bad(seed):\n"
            "    return random.Random(seed)\n"
        )
        code = cli_main(["lint", "src/repro", str(extra)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL102" in out
        assert "rogue.py" in out
