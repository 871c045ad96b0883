"""Render a :class:`~repro.lint.core.LintReport` as the text CI logs show."""

from __future__ import annotations

from repro.lint.core import LintReport


def text_report(report: LintReport) -> str:
    """One line per finding plus a summary line."""
    lines = [finding.format() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun} in {report.files_checked} file(s) "
        f"[rules: {', '.join(report.rules_run)}]"
    )
    return "\n".join(lines)
