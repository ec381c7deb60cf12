"""Every checker against its known-good / known-bad corpus files."""

from collections import Counter
from pathlib import Path

from repro.analysis.checkers import (
    all_rules,
    build_checkers,
    build_program_checkers,
)
from repro.analysis.runner import analyze_file, analyze_paths

CORPUS = Path(__file__).parent / "corpus"
CHECKERS = build_checkers()


def active_rules(path):
    return Counter(
        f.rule for f in analyze_file(path, CHECKERS) if not f.suppressed
    )


class TestDtypeChecker:
    def test_bad_file_trips_every_dtype_rule(self):
        rules = active_rules(CORPUS / "lwe" / "bad_dtype.py")
        assert rules["dtype-mixed-arith"] == 2
        assert rules["dtype-missing-qbits"] == 2
        assert rules["dtype-signed-cast"] == 1

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "lwe" / "good_dtype.py")

    def test_rules_are_scoped_to_crypto_dirs(self, tmp_path):
        """The same bad code outside lwe/rlwe/homenc/pir is not flagged."""
        outside = tmp_path / "elsewhere.py"
        outside.write_text(
            (CORPUS / "lwe" / "bad_dtype.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        rules = active_rules(outside)
        assert not any(r.startswith("dtype-") for r in rules)


def program_rules(path):
    report = analyze_paths([path], [], build_program_checkers())
    return Counter(f.rule for f in report.findings)


class TestTaintChecker:
    def test_bad_file_trips_every_taint_rule(self):
        rules = program_rules(CORPUS / "bad_taint.py")
        # if, while, flowed-through, comprehension, module-level if
        assert rules["taint-branch"] == 5
        # print, logger.info, keys.mask, module-level print
        assert rules["taint-log"] == 4
        assert rules["taint-raise"] == 1
        assert rules["taint-wire"] == 1

    def test_good_file_is_clean(self):
        assert not program_rules(CORPUS / "good_taint.py")


class TestRngChecker:
    def test_bad_file_trips_every_rng_rule(self):
        rules = active_rules(CORPUS / "bad_rng.py")
        assert rules["rng-stdlib"] == 1
        assert rules["rng-unseeded"] == 1
        assert rules["rng-legacy"] == 2  # np.random.seed + np.random.rand

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "good_rng.py")


class TestApiChecker:
    def test_bad_file_trips_every_api_rule(self):
        rules = active_rules(CORPUS / "bad_api.py")
        assert rules["api-assert"] == 1
        assert rules["api-print"] == 1
        assert rules["api-wallclock"] == 1

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "good_api.py")

    def test_cli_modules_are_exempt(self, tmp_path):
        cli = tmp_path / "cli.py"
        cli.write_text("print('hello')\n", encoding="utf-8")
        assert not active_rules(cli)


class TestNetChecker:
    def test_bad_file_trips_the_dispatch_rule(self):
        rules = active_rules(CORPUS / "bad_net.py")
        assert rules["net-dispatch"] == 1

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "good_net.py")

    def test_net_package_itself_is_exempt(self, tmp_path):
        """Transport implementations are the legitimate dispatch site."""
        net_dir = tmp_path / "repro" / "net"
        net_dir.mkdir(parents=True)
        inside = net_dir / "loopback.py"
        inside.write_text(
            (CORPUS / "bad_net.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert not active_rules(inside)


class TestKernelSeamChecker:
    def test_bad_file_trips_the_seam_rule(self):
        """Three direct constructions + two raw ring products; the
        float-geometry product at the bottom stays legal."""
        rules = active_rules(CORPUS / "lwe" / "bad_kernelseam.py")
        assert rules["kernel-seam"] == 5

    def test_backends_package_itself_is_exempt(self, tmp_path):
        """The seam is the one legitimate home of the raw kernel."""
        seam_dir = tmp_path / "repro" / "lwe" / "backends"
        seam_dir.mkdir(parents=True)
        inside = seam_dir / "reference.py"
        inside.write_text(
            (CORPUS / "lwe" / "bad_kernelseam.py").read_text(
                encoding="utf-8"
            ),
            encoding="utf-8",
        )
        assert not active_rules(inside)

    def test_modular_module_is_exempt(self, tmp_path):
        lwe_dir = tmp_path / "repro" / "lwe"
        lwe_dir.mkdir(parents=True)
        inside = lwe_dir / "modular.py"
        inside.write_text(
            (CORPUS / "lwe" / "bad_kernelseam.py").read_text(
                encoding="utf-8"
            ),
            encoding="utf-8",
        )
        assert not active_rules(inside)

    def test_serving_corpus_stays_clean(self):
        """The refactored hot modules go through the registry."""
        assert not active_rules(CORPUS / "core" / "ranking.py")
        assert not active_rules(CORPUS / "core" / "cluster_runtime.py")[
            "kernel-seam"
        ]


class TestBatchChecker:
    def test_bad_file_trips_the_batch_loop_rule(self):
        rules = active_rules(CORPUS / "core" / "cluster_runtime.py")
        assert rules["batch-loop"] == 4

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "core" / "scheduler.py")

    def test_rule_is_scoped_to_hot_modules(self, tmp_path):
        """The same loops in any other module are not flagged."""
        source = (CORPUS / "core" / "cluster_runtime.py").read_text(
            encoding="utf-8"
        )
        core = tmp_path / "core"
        core.mkdir()
        other = core / "loadgen.py"
        other.write_text(source, encoding="utf-8")
        assert not active_rules(other)
        outside = tmp_path / "cluster_runtime.py"
        outside.write_text(source, encoding="utf-8")
        assert not active_rules(outside)

    def test_shipped_hot_modules_are_clean(self):
        """The real batch-plane modules obey their own rule."""
        import repro.core.cluster_runtime as cr
        import repro.core.scheduler as sched

        for module in (cr, sched):
            assert not active_rules(Path(module.__file__))["batch-loop"]


class TestHotPathChecker:
    def test_bad_file_trips_the_precompute_rule(self):
        rules = active_rules(CORPUS / "core" / "client.py")
        assert rules["hot-path-precompute"] == 5

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "core" / "ranking.py")

    def test_rule_is_scoped_to_online_modules(self, tmp_path):
        """The same calls anywhere else are legitimate offline work."""
        source = (CORPUS / "core" / "client.py").read_text(encoding="utf-8")
        core = tmp_path / "core"
        core.mkdir()
        other = core / "indexer.py"
        other.write_text(source, encoding="utf-8")
        assert not active_rules(other)
        outside = tmp_path / "client.py"
        outside.write_text(source, encoding="utf-8")
        assert not active_rules(outside)

    def test_shipped_online_modules_are_clean(self):
        """The real client and ranking modules obey their own rule."""
        import repro.core.client as client
        import repro.core.ranking as ranking

        for module in (client, ranking):
            assert not active_rules(Path(module.__file__))[
                "hot-path-precompute"
            ]


class TestIngestChecker:
    def test_bad_file_trips_every_materialize_shape(self):
        rules = active_rules(CORPUS / "ingest" / "bad_materialize.py")
        # vstack, concatenate, list(batches()), sorted(genexp),
        # tuple(read_batches()).
        assert rules["ingest-materialize"] == 5

    def test_good_file_is_clean(self):
        assert not active_rules(CORPUS / "ingest" / "good_materialize.py")

    def test_rule_is_scoped_to_the_ingest_dir(self, tmp_path):
        """The same code outside src/repro/ingest/ is not flagged."""
        outside = tmp_path / "elsewhere.py"
        outside.write_text(
            (CORPUS / "ingest" / "bad_materialize.py").read_text(
                encoding="utf-8"
            ),
            encoding="utf-8",
        )
        assert not active_rules(outside)["ingest-materialize"]

    def test_shipped_ingest_plane_is_clean(self):
        import repro.ingest.pipeline as pipeline

        src_dir = Path(pipeline.__file__).parent
        for path in sorted(src_dir.glob("*.py")):
            assert not active_rules(path)["ingest-materialize"], path


class TestFramework:
    def test_parse_error_becomes_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        findings = analyze_file(broken, CHECKERS)
        assert [f.rule for f in findings] == ["parse-error"]

    def test_every_checker_documents_its_rules(self):
        specs = all_rules()
        seen = [spec.rule for spec in specs]
        assert len(seen) == len(set(seen)), "duplicate rule ids"
        for spec in specs:
            assert spec.summary and spec.invariant

    def test_every_rule_has_a_positive_corpus_case(self):
        """Each shipped rule fires somewhere in the bad corpus files.

        The batch and hotpath checkers are filename-scoped (they only
        bind in their hot modules), so their known-bad corpus files
        carry the hot-module names under ``corpus/core/`` instead of
        the ``bad_`` prefix.  Whole-program rules (lock-*, taint-*)
        run through :func:`analyze_paths` with the program checkers.
        """
        fired = Counter()
        paths = sorted(CORPUS.rglob("bad_*.py")) + [
            CORPUS / "core" / "cluster_runtime.py",
            CORPUS / "core" / "client.py",
        ]
        for path in paths:
            fired.update(active_rules(path))
        report = analyze_paths(paths, [], build_program_checkers())
        fired.update(f.rule for f in report.findings)
        for spec in all_rules():
            assert fired[spec.rule] > 0, f"no corpus case for {spec.rule}"
