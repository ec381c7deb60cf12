"""The interprocedural taint checker against its corpus, plus the
seeded two-hop secret-to-log injection from the acceptance criteria."""

from collections import Counter
from pathlib import Path

from repro.analysis.checkers import build_checkers, build_program_checkers
from repro.analysis.runner import analyze_paths

CORPUS = Path(__file__).parent / "corpus"

ITAINT_RULES = {"itaint-branch", "itaint-log", "itaint-raise", "itaint-wire"}


def itaint_findings(*paths):
    report = analyze_paths(
        list(paths), [], build_program_checkers(ITAINT_RULES)
    )
    return report.findings


class TestSeededInjection:
    def test_two_hop_secret_to_log_is_exactly_one_finding(self):
        """Acceptance: gen_secret -> helper -> helper -> logger.info."""
        findings = [
            f
            for f in itaint_findings(CORPUS / "bad_itaint.py")
            if f.rule == "itaint-log"
        ]
        assert len(findings) == 1
        (finding,) = findings
        assert "logger.info" in (finding.snippet or "")
        assert "call chain" in finding.message

    def test_the_intraprocedural_checker_cannot_see_it(self):
        """The two-hop flow is invisible per-file -- that's the point."""
        report = analyze_paths(
            [CORPUS / "bad_itaint.py"], build_checkers({"taint-log"})
        )
        assert not report.findings


class TestItaintCorpus:
    def test_each_rule_fires_exactly_once(self):
        rules = Counter(
            f.rule for f in itaint_findings(CORPUS / "bad_itaint.py")
        )
        assert rules == {
            "itaint-branch": 1,
            "itaint-log": 1,
            "itaint-raise": 1,
            "itaint-wire": 1,
        }

    def test_good_file_is_clean(self):
        assert not itaint_findings(CORPUS / "good_itaint.py")

    def test_secret_attribute_keeps_its_objects_flow(self, tmp_path):
        """A helper reading ``keys.mask`` passes its argument's taint
        through: a locally sourced key sent through it stays the
        per-file pass's finding, with no itaint duplicate."""
        src = tmp_path / "mask_flow.py"
        src.write_text(
            "def seal(keys, message):\n"
            "    return keys.mask + message\n"
            "\n"
            "\n"
            "def send(scheme, message, rng):\n"
            "    keys = scheme.gen_keys(rng)\n"
            "    return encode_ciphertext(seal(keys, message))\n",
            encoding="utf-8",
        )
        assert not itaint_findings(src)
        per_file = analyze_paths([src], build_checkers({"taint-wire"}))
        assert [f.rule for f in per_file.findings] == ["taint-wire"]

    def test_declassified_metadata_does_not_propagate(self):
        """.shape / len() on helper-returned secrets stay unflagged."""
        findings = itaint_findings(CORPUS / "good_itaint.py")
        assert findings == []
