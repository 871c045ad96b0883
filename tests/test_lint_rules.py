"""The repro lint pass: framework, the per-module rules, the CLI.

Each rule gets at least one fixture that trips it and one clean
counterexample that must not; the suite ends with the self-check the CI
``lint`` job runs — ``repro lint src/repro`` must be clean. The
whole-program rules (RL101, RL102, RL104) have their fixtures in
``test_lint_deep.py``.
"""

import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import Finding, registered_rules, run_lint, text_report
from repro.lint.core import PARSE_ERROR_ID, path_matches


def lint_source(tmp_path, source, name="mod.py", select=None):
    """Write one fixture module and lint it; return the findings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([path], select=select).findings


def rules_hit(findings):
    return {finding.rule for finding in findings}


class TestFramework:
    def test_every_kept_rule_registered_once(self):
        assert sorted(registered_rules()) == [
            "RL001",
            "RL002",
            "RL003",
            "RL005",
            "RL101",
            "RL102",
            "RL104",
        ]

    def test_select_restricts_and_rejects_unknown(self, tmp_path):
        source = """
        import random

        def f():
            return random.random()
        """
        assert rules_hit(lint_source(tmp_path, source, select=["RL002"])) == {
            "RL002"
        }
        assert lint_source(tmp_path, source, select=["RL001"]) == []
        with pytest.raises(ValueError, match="RL999"):
            run_lint([tmp_path], select=["RL999"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert [finding.rule for finding in findings] == [PARSE_ERROR_ID]

    def test_suppression_comment_silences_one_rule(self, tmp_path):
        flagged = lint_source(
            tmp_path, "import random\nx = random.random()\n"
        )
        assert rules_hit(flagged) == {"RL002"}
        suppressed = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: ignore[RL002] -- demo\n",
        )
        assert suppressed == []
        # Naming a *different* rule does not silence RL002.
        wrong_id = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: ignore[RL001]\n",
        )
        assert rules_hit(wrong_id) == {"RL002"}
        # A bare ignore silences everything on the line.
        bare = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: ignore\n",
        )
        assert bare == []

    def test_path_matches_suffix_semantics(self):
        assert path_matches("src/repro/sources/middleware.py", ("sources/middleware.py",))
        assert path_matches("sources/middleware.py", ("sources/middleware.py",))
        assert path_matches("src/repro/faults/injector.py", ("faults/*",))
        assert not path_matches("src/repro/core/state.py", ("faults/*",))

    def test_text_report_runs_every_rule(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import random\nx = random.random()\n")
        report = run_lint([path])
        text = text_report(report)
        assert "RL002" in text and "1 finding" in text
        assert report.rules_run == sorted(registered_rules())

    def test_finding_format_is_path_line_col(self):
        finding = Finding("RL001", "a/b.py", 3, 5, "boom")
        assert finding.format() == "a/b.py:3:5: RL001 boom"


class TestRL001UnchargedAccess:
    def test_direct_source_access_flagged(self, tmp_path):
        source = """
        def run(sources):
            pair = sources[0].sorted_access()
            score = sources[1].random_access(4)
            return pair, score
        """
        findings = lint_source(tmp_path, source)
        assert [finding.rule for finding in findings] == ["RL001", "RL001"]
        assert "bypasses the middleware" in findings[0].message

    def test_middleware_receiver_clean(self, tmp_path):
        source = """
        def run(middleware, mw):
            middleware.sorted_access(0)
            mw.random_access(1, 4)
            return self.middleware.sorted_access(0)
        """
        assert lint_source(tmp_path, source) == []

    def test_allowed_inside_middleware_and_faults(self, tmp_path):
        source = """
        def attempt(source):
            return source.sorted_access()
        """
        assert lint_source(tmp_path, source, name="sources/middleware.py") == []
        assert lint_source(tmp_path, source, name="faults/injector.py") == []
        assert rules_hit(lint_source(tmp_path, source, name="core/engine.py")) == {
            "RL001"
        }


class TestRL002Nondeterminism:
    def test_global_random_calls_flagged(self, tmp_path):
        source = """
        import random

        def jitter():
            return random.uniform(0.0, 1.0)
        """
        findings = lint_source(tmp_path, source)
        assert rules_hit(findings) == {"RL002"}
        assert "module-level generator" in findings[0].message

    def test_unseeded_random_flagged_even_in_rng_roots(self, tmp_path):
        source = """
        import random

        def make():
            return random.Random()
        """
        assert rules_hit(lint_source(tmp_path, source, name="determinism.py")) == {
            "RL002"
        }
        # Outside the root the construction itself is RL102's finding too.
        assert rules_hit(lint_source(tmp_path, source, name="faults/rng.py")) == {
            "RL002",
            "RL102",
        }

    def test_seeded_random_outside_roots_flagged(self, tmp_path):
        source = """
        import random

        def make(seed):
            return random.Random(seed)
        """
        # RL102 owns seeded construction: one finding, not one per rule.
        findings = lint_source(tmp_path, source, name="core/policy.py")
        assert rules_hit(findings) == {"RL102"}
        assert "derive_rng" in findings[0].message

    def test_seeded_random_inside_roots_clean(self, tmp_path):
        source = """
        import random

        def make(seed):
            return random.Random(seed)
        """
        assert lint_source(tmp_path, source, name="determinism.py") == []
        # The fault layer and workload generators adopted derive_rng, so
        # they are no longer roots.
        for name in ("faults/rng.py", "bench/workloads.py"):
            assert rules_hit(lint_source(tmp_path, source, name=name)) == {
                "RL102"
            }

    def test_wall_clock_and_entropy_flagged(self, tmp_path):
        source = """
        import os
        import time
        import uuid
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now(), os.urandom(4), uuid.uuid4()
        """
        findings = lint_source(tmp_path, source)
        assert len(findings) == 4
        assert rules_hit(findings) == {"RL002"}

    def test_import_aliases_resolved(self, tmp_path):
        source = """
        import random as rnd
        from random import Random

        def make():
            rnd.shuffle([])
            return Random()
        """
        findings = lint_source(tmp_path, source)
        # Both aliases resolve; Random() is also constructed outside
        # repro.determinism, which RL102 reports.
        assert sorted(f.rule for f in findings) == ["RL002", "RL002", "RL102"]

    def test_injected_rng_clean(self, tmp_path):
        source = """
        def jitter(rng):
            return rng.uniform(0.0, 1.0)
        """
        assert lint_source(tmp_path, source) == []

    def test_numpy_global_generator_flagged(self, tmp_path):
        source = """
        import numpy as np

        def noise():
            return np.random.rand(3)

        def gen():
            return np.random.default_rng()
        """
        findings = lint_source(tmp_path, source)
        assert len(findings) == 2
        seeded = lint_source(
            tmp_path,
            """
            import numpy as np

            def gen(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert seeded == []


class TestRL003UnrootedException:
    def test_rooted_exception_clean(self, tmp_path):
        source = """
        class ReproError(Exception):
            pass

        class PlanError(ReproError):
            pass

        def f():
            raise PlanError("nope")
        """
        assert lint_source(tmp_path, source) == []

    def test_raise_bare_exception_flagged(self, tmp_path):
        source = """
        def f():
            raise Exception("nope")
        """
        findings = lint_source(tmp_path, source)
        assert rules_hit(findings) == {"RL003"}

    def test_reraise_clean(self, tmp_path):
        source = """
        def f(exc):
            try:
                pass
            except ValueError:
                raise
            raise exc
        """
        assert lint_source(tmp_path, source) == []


class TestRL005MutableDefault:
    def test_mutable_signature_defaults_flagged(self, tmp_path):
        source = """
        def f(a, seen=[], *, table={}):
            return a, seen, table
        """
        findings = lint_source(tmp_path, source)
        assert len(findings) == 2
        assert rules_hit(findings) == {"RL005"}

    def test_mutable_class_body_flagged(self, tmp_path):
        source = """
        class Tracker:
            log = []
            bounds: dict = {}
        """
        findings = lint_source(tmp_path, source)
        assert len(findings) == 2

    def test_classvar_and_immutable_clean(self, tmp_path):
        source = """
        from dataclasses import dataclass, field
        from typing import ClassVar

        @dataclass
        class Config:
            KINDS: ClassVar[list] = ["a", "b"]
            order: tuple = ()
            table: dict = field(default_factory=dict)

        def f(a, seen=None):
            return a, seen if seen is not None else []
        """
        assert lint_source(tmp_path, source) == []

    def test_mutable_constructor_defaults_flagged(self, tmp_path):
        source = """
        def f(xs=list(), ys=set()):
            return xs, ys
        """
        assert len(lint_source(tmp_path, source)) == 2


class TestSelfCheck:
    def test_library_is_lint_clean_via_cli(self, capsys):
        assert cli_main(["lint", "src/repro"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_cli_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert cli_main(["lint", str(bad)]) == 1
        assert "RL002" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--deep", "--format", "--baseline", "--select"]
    )
    def test_cli_takes_only_paths(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "src/repro", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPathNormalization:
    """``./`` and absolute spellings match allowlists and suppressions."""

    SPELLINGS = ["relative", "dot", "absolute"]

    def _arg(self, tmp_path, rel, spelling):
        return {
            "relative": rel,
            "dot": f"./{rel}",
            "absolute": str(tmp_path / rel),
        }[spelling]

    def _write(self, tmp_path, rel, source):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    DIRECT_ACCESS = """
    def probe(source):
        return source.sorted_access()
    """

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_allowlisted_path_recognized_in_all_spellings(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        # tests/* is on RL001's allowlist: the direct access is legal
        # there no matter how the CLI names the file.
        self._write(tmp_path, "tests/fixture.py", self.DIRECT_ACCESS)
        monkeypatch.chdir(tmp_path)
        arg = self._arg(tmp_path, "tests/fixture.py", spelling)
        code = cli_main(["lint", arg])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_violation_still_caught_in_all_spellings(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        self._write(tmp_path, "app/engine.py", self.DIRECT_ACCESS)
        monkeypatch.chdir(tmp_path)
        code = cli_main(["lint", self._arg(tmp_path, "app/engine.py", spelling)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL001" in out

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_project_rule_suppression_holds_in_all_spellings(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        # Whole-program findings are filtered by the same per-line table
        # as per-module ones, whatever the path spelling.
        source = """
        import random

        def make(seed):
            return random.Random(seed)  # repro-lint: ignore[RL102] -- fixture
        """
        self._write(tmp_path, "app/rng.py", source)
        monkeypatch.chdir(tmp_path)
        code = cli_main(["lint", self._arg(tmp_path, "app/rng.py", spelling)])
        assert code == 0, capsys.readouterr().out
