"""The secret-taint pass across call boundaries, against its corpus,
plus the seeded two-hop secret-to-log injection."""

from collections import Counter
from pathlib import Path

from repro.analysis.checkers import build_program_checkers
from repro.analysis.runner import analyze_paths

CORPUS = Path(__file__).parent / "corpus"

TAINT_RULES = {"taint-branch", "taint-log", "taint-raise", "taint-wire"}


def taint_findings(*paths):
    report = analyze_paths(
        list(paths), [], build_program_checkers(TAINT_RULES)
    )
    return report.findings


class TestSeededInjection:
    def test_two_hop_secret_to_log_is_exactly_one_finding(self):
        """gen_secret -> helper -> helper -> logger.info."""
        findings = [
            f
            for f in taint_findings(CORPUS / "bad_itaint.py")
            if f.rule == "taint-log"
        ]
        assert len(findings) == 1
        (finding,) = findings
        assert "logger.info" in (finding.snippet or "")
        assert "secret-derived" in finding.message


class TestItaintCorpus:
    def test_each_rule_fires_exactly_once(self):
        rules = Counter(
            f.rule for f in taint_findings(CORPUS / "bad_itaint.py")
        )
        assert rules == {
            "taint-branch": 1,
            "taint-log": 1,
            "taint-raise": 1,
            "taint-wire": 1,
        }

    def test_good_file_is_clean(self):
        assert not taint_findings(CORPUS / "good_itaint.py")

    def test_secret_attribute_keeps_its_objects_flow(self, tmp_path):
        """A helper reading ``keys.mask`` passes its argument's taint
        through: a locally sourced key sent through it is reported once,
        though the secret also arrives through the helper's return."""
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
        assert [f.rule for f in taint_findings(src)] == ["taint-wire"]

    def test_static_method_arguments_map_to_their_parameters(self, tmp_path):
        """A static method has no ``self``: its first argument is its
        first parameter, whichever receiver the call goes through."""
        src = tmp_path / "static_sink.py"
        src.write_text(
            "import logging\n"
            "\n"
            "logger = logging.getLogger(__name__)\n"
            "\n"
            "\n"
            "class Box:\n"
            "    @staticmethod\n"
            "    def show(value, label):\n"
            "        logger.info('%s', value)\n"
            "\n"
            "    def run(self, scheme, rng):\n"
            "        self.show(scheme.gen_secret(rng), 'k')\n",
            encoding="utf-8",
        )
        findings = taint_findings(src)
        assert [(f.rule, f.line) for f in findings] == [("taint-log", 12)]

    def test_declassified_metadata_does_not_propagate(self):
        """.shape / len() on helper-returned secrets stay unflagged."""
        findings = taint_findings(CORPUS / "good_itaint.py")
        assert findings == []
