"""Tests for tools/check_docs.py — the intra-repo doc link gate.

Run as a subprocess, exactly as the CI ``docs-check`` job invokes it:
exit 0 when every relative Markdown link resolves, 1 with a
``file:line`` listing otherwise.
"""

import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
REPO_ROOT = CHECKER.parents[1]


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, args)],
        capture_output=True,
        text=True,
    )


class TestRepoDocs:
    def test_the_actual_repo_docs_pass(self):
        result = run_checker("--root", REPO_ROOT)
        assert result.returncode == 0, result.stdout

    def test_architecture_and_serving_are_linked_from_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SERVING.md" in readme


class TestLinkChecking:
    def test_broken_relative_link_fails_with_location(self, tmp_path):
        (tmp_path / "index.md").write_text(
            "# Title\n\nSee [the guide](guide/missing.md) for more.\n"
        )
        result = run_checker("--root", tmp_path)
        assert result.returncode == 1
        assert "index.md:3" in result.stdout
        assert "guide/missing.md" in result.stdout

    def test_resolving_relative_links_pass(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "other.md").write_text("# Other\n\nBack to [top](../a.md)\n")
        (tmp_path / "a.md").write_text("Go [deeper](docs/other.md).\n")
        result = run_checker("--root", tmp_path)
        assert result.returncode == 0, result.stdout

    def test_external_and_anchor_links_ignored(self, tmp_path):
        (tmp_path / "a.md").write_text(
            "[site](https://example.com) [mail](mailto:x@y.z) "
            "[anchor](#section)\n"
        )
        result = run_checker("--root", tmp_path)
        assert result.returncode == 0, result.stdout

    def test_section_anchor_on_existing_file_passes(self, tmp_path):
        (tmp_path / "b.md").write_text("# B\n## Deep\n")
        (tmp_path / "a.md").write_text("[jump](b.md#deep)\n")
        result = run_checker("--root", tmp_path)
        assert result.returncode == 0, result.stdout

    def test_links_inside_code_fences_ignored(self, tmp_path):
        (tmp_path / "a.md").write_text(
            "# A\n\n```markdown\n[example](not/a/real/file.md)\n```\n"
        )
        result = run_checker("--root", tmp_path)
        assert result.returncode == 0, result.stdout

    def test_reference_style_links_checked(self, tmp_path):
        (tmp_path / "a.md").write_text(
            "See [the spec][spec].\n\n[spec]: missing-spec.md\n"
        )
        result = run_checker("--root", tmp_path)
        assert result.returncode == 1
        assert "missing-spec.md" in result.stdout

    def test_explicit_file_list_mode(self, tmp_path):
        good = tmp_path / "good.md"
        good.write_text("no links here\n")
        bad = tmp_path / "bad.md"
        bad.write_text("[x](gone.md)\n")
        assert run_checker(good).returncode == 0
        assert run_checker(good, bad).returncode == 1

    def test_missing_input_file_fails(self, tmp_path):
        result = run_checker(tmp_path / "absent.md")
        assert result.returncode == 1
        assert "no such file" in result.stdout


class TestCodePaths:
    """README.md and docs/ must not name repo paths that are gone."""

    def _repo(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "kept.py").write_text("")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_kept.py").write_text("")
        (tmp_path / "docs").mkdir()
        return tmp_path

    def test_deleted_module_in_readme_and_docs_fails(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "README.md").write_text("See `src/pkg/gone.py`.\n")
        (root / "docs" / "GUIDE.md").write_text(
            "# Guide\n\nRun `tests/test_gone.py -q`.\n"
        )
        result = run_checker("--root", root)
        assert result.returncode == 1
        assert "README.md:1: missing path -> src/pkg/gone.py" in result.stdout
        assert "GUIDE.md:3: missing path -> tests/test_gone.py" in result.stdout

    def test_existing_paths_globs_and_suffixes_pass(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "README.md").write_text(
            "`src/pkg/` `src/pkg/kept.py:12` `tests/test_*.py` "
            "`tests/test_kept.py::TestA::test_b` "
            "`src/pkg/kept.py --flag value`\n"
        )
        result = run_checker("--root", root)
        assert result.returncode == 0, result.stdout

    def test_change_logs_and_code_fences_are_exempt(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "CHANGES.md").write_text("Deleted `src/pkg/gone.py`.\n")
        (root / "ROADMAP.md").write_text("Was `tools/old.py`.\n")
        (root / "README.md").write_text(
            "```\n`src/pkg/gone.py`\n```\n`no/such/dir.py`\n"
        )
        result = run_checker("--root", root)
        assert result.returncode == 0, result.stdout

    def test_unmatched_glob_fails(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "README.md").write_text("`tests/bench_*.py`\n")
        result = run_checker("--root", root)
        assert result.returncode == 1
        assert "missing path -> tests/bench_*.py" in result.stdout

