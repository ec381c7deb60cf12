"""The ``python -m repro.analysis`` entry point, end to end.

Includes the PR's acceptance criteria: the repo-wide run over ``src/``
exits 0 (everything fixed or justified), and the known-bad corpus
makes the tool exit non-zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).parent / "corpus"


def run_lint(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


class TestExitCodes:
    def test_repo_wide_run_is_clean(self):
        """Acceptance: src/ has no unjustified invariant violations, the
        whole-repo analysis stays under 30 s wall clock, and the output
        is the committed suppression inventory (CI's baseline diff)."""
        proc = run_lint("src/", "--baseline", "--max-seconds", "30")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "active findings: 0" in proc.stdout
        assert "suppressions (location, rule, reason):" in proc.stdout
        assert " -- " in proc.stdout  # at least one justified suppression
        baseline = REPO / "benchmarks" / "out" / "lint_baseline.txt"
        assert proc.stdout == baseline.read_text(encoding="utf-8")

    def test_known_bad_corpus_fails(self):
        """Acceptance: the bad snippets make the tool exit non-zero."""
        proc = run_lint(str(CORPUS))
        assert proc.returncode == 1
        assert "finding(s)" in proc.stdout

    def test_good_corpus_files_pass(self):
        proc = run_lint(
            str(CORPUS / "good_taint.py"),
            str(CORPUS / "good_rng.py"),
            str(CORPUS / "good_api.py"),
            str(CORPUS / "lwe" / "good_dtype.py"),
        )
        assert proc.returncode == 0, proc.stdout

    def test_missing_path_is_a_usage_error(self):
        proc = run_lint("does/not/exist")
        assert proc.returncode == 2


class TestOutputModes:
    def test_json_mode_is_machine_readable(self):
        proc = run_lint(str(CORPUS), "--json")
        payload = json.loads(proc.stdout)
        assert payload["files_scanned"] >= 8
        rules = {f["rule"] for f in payload["findings"]}
        assert {"dtype-mixed-arith", "taint-branch", "rng-unseeded",
                "api-assert"} <= rules
        assert payload["counts"]["api-print"] >= 2
        sup_rules = {f["rule"] for f in payload["suppressed"]}
        assert "rng-unseeded" in sup_rules

    def test_baseline_mode_lists_suppressions_with_reasons(self):
        proc = run_lint("src/", "--baseline")
        assert proc.returncode == 0
        assert "active findings: 0" in proc.stdout
        assert "suppressions (location, rule, reason):" in proc.stdout
        assert " -- " in proc.stdout  # at least one justified suppression

    def test_list_rules_covers_all_four_checkers(self):
        proc = run_lint("--list-rules")
        assert proc.returncode == 0
        for rule in ("dtype-mixed-arith", "taint-wire", "rng-unseeded",
                     "api-assert"):
            assert rule in proc.stdout

    def test_rule_filter(self):
        proc = run_lint(str(CORPUS), "--rules", "api-print", "--json")
        payload = json.loads(proc.stdout)
        assert payload["findings"]
        assert {f["rule"] for f in payload["findings"]} == {"api-print"}

    def test_unknown_rule_filter_is_a_usage_error(self):
        for rule in ("no-such-rule", "itaint-wire"):
            proc = run_lint(str(CORPUS), "--rules", rule)
            assert proc.returncode == 2, rule


class TestWallClockBudget:
    def test_repo_wide_run_fits_the_ci_budget(self):
        """Acceptance: whole-repo analysis stays under 30 s wall clock."""
        proc = run_lint("src/", "--max-seconds", "30")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_blown_budget_fails_even_when_clean(self):
        proc = run_lint(
            str(CORPUS / "good_taint.py"), "--max-seconds", "0.000001"
        )
        assert proc.returncode == 1
        assert "over the" in proc.stderr


class TestChangedOnly:
    @staticmethod
    def _git(cwd, *args):
        subprocess.run(
            ["git", "-c", "user.email=t@e.st", "-c", "user.name=t", *args],
            cwd=cwd,
            check=True,
            capture_output=True,
        )

    def run_in(self, cwd, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_reports_changed_files_plus_call_graph_dependents(
        self, tmp_path
    ):
        """A change to lib.py implicates its caller app.py, but never
        the unrelated other.py."""
        (tmp_path / "lib.py").write_text(
            "import pickle\n\n\ndef helper():\n    return 1\n\n\n"
            "def leak(sk):\n    return pickle.dumps(sk)\n",
            encoding="utf-8",
        )
        (tmp_path / "app.py").write_text(
            "from lib import helper\n\n\ndef use():\n    return helper()\n"
            "\n\ndef leak2(secret_key):\n"
            "    raise ValueError(f'{secret_key}')\n",
            encoding="utf-8",
        )
        (tmp_path / "other.py").write_text(
            "import pickle\n\n\ndef leak3(sk):\n"
            "    return pickle.dumps(sk)\n",
            encoding="utf-8",
        )
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        # Touch only lib.py.
        with open(tmp_path / "lib.py", "a", encoding="utf-8") as fh:
            fh.write("\n\nEXTRA = 1\n")

        proc = self.run_in(
            tmp_path,
            "lib.py",
            "app.py",
            "other.py",
            "--changed-only",
            "--json",
        )
        payload = json.loads(proc.stdout)
        reported = {f["path"] for f in payload["findings"]}
        assert any(p.endswith("lib.py") for p in reported)
        assert any(p.endswith("app.py") for p in reported), (
            "the caller of the changed module was not re-checked"
        )
        assert not any(p.endswith("other.py") for p in reported)
        # the whole program was still parsed for resolution
        assert payload["files_scanned"] == 3

    def test_no_changes_means_no_findings(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import pickle\n\n\ndef leak(sk):\n"
            "    return pickle.dumps(sk)\n",
            encoding="utf-8",
        )
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        proc = self.run_in(tmp_path, "mod.py", "--changed-only")
        assert proc.returncode == 0, proc.stdout
