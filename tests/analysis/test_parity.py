"""RL105 scalar↔batch twin parity — fixtures and the real tree."""

import textwrap

from repro.analysis import lint_sources, run_lint

SCALAR = textwrap.dedent(
    """
    class Link:
        def step(self, now_s, payload_bytes):
            return payload_bytes

        def reset(self):
            pass

        def _internal(self):
            pass
    """
)

BATCH = textwrap.dedent(
    """
    class BatchLink:
        def __init__(self, n_replicas, parallel=None):
            self.n_replicas = n_replicas

        def step(self, now_s, payload_bytes):
            return payload_bytes

        def reset(self):
            pass
    """
)


def lint_pair(batch_source=BATCH, scalar_source=SCALAR):
    return lint_sources(
        {"net/link.py": scalar_source, "net/batchlink.py": batch_source},
        rules=["RL105"],
    )


class TestClassTwins:
    def test_full_mirror_passes_and_is_reported(self):
        report = lint_pair()
        assert report.new_findings == []
        pairs = {(p.kind, p.scalar, p.batch) for p in report.parity_pairs}
        assert (
            "class",
            "net/link.py::Link",
            "net/batchlink.py::BatchLink",
        ) in pairs

    def test_missing_method_fires(self):
        broken = BATCH.replace(
            "    def reset(self):\n        pass\n", ""
        )
        assert "reset" not in broken  # fixture sanity
        report = lint_pair(batch_source=broken)
        assert [f.rule for f in report.new_findings] == ["RL105"]
        assert "does not mirror scalar twin method Link.reset()" in (
            report.new_findings[0].message
        )

    def test_signature_drift_fires(self):
        drifted = BATCH.replace(
            "def step(self, now_s, payload_bytes):",
            "def step(self, payload_bytes, now_s):",
        )
        report = lint_pair(batch_source=drifted)
        assert [f.rule for f in report.new_findings] == ["RL105"]
        assert "does not match scalar twin" in report.new_findings[0].message

    def test_batch_suffix_mirror_accepted(self):
        suffixed = BATCH.replace("def step(", "def step_batch(")
        report = lint_pair(batch_source=suffixed)
        assert report.new_findings == []

    def test_pluralised_params_accepted(self):
        plural = textwrap.dedent(
            """
            class Model:
                def evaluate(self, scenario, distance_m):
                    return 0.0

            class BatchModel:
                def evaluate(self, scenarios, distances_m, n_replicas=1):
                    return 0.0
            """
        )
        report = lint_sources({"engine/m.py": plural}, rules=["RL105"])
        assert report.new_findings == []

    def test_private_methods_not_required(self):
        report = lint_pair()  # BATCH has no _internal mirror
        assert report.new_findings == []

    def test_no_scalar_twin_is_not_a_pair(self):
        orphan = "class BatchOnlyThing:\n    def run(self):\n        pass\n"
        report = lint_sources({"x/y.py": orphan}, rules=["RL105"])
        assert report.new_findings == []
        assert report.parity_pairs == []

    def test_ambiguous_scalar_twin_skipped(self):
        sources = {
            "a/widget.py": "class Widget:\n    def go(self):\n        pass\n",
            "b/widget.py": "class Widget:\n    def go(self):\n        pass\n",
            "c/batch.py": "class BatchWidget:\n    pass\n",
        }
        report = lint_sources(sources, rules=["RL105"])
        assert report.new_findings == []
        assert report.parity_pairs == []

    def test_inline_suppression_honoured(self):
        suppressed = BATCH.replace(
            "class BatchLink:",
            "class BatchLink:  # reprolint: disable=RL105",
        ).replace("    def reset(self):\n        pass\n", "")
        report = lint_pair(batch_source=suppressed)
        assert report.new_findings == []
        assert [f.rule for f in report.suppressed] == ["RL105"]


class TestMethodTwins:
    def test_matching_array_twin_reported(self):
        source = textwrap.dedent(
            """
            class ErrorModel:
                def per(self, snr_db, mcs_index, size_bytes):
                    return 0.0

                def per_array(self, snr_db, mcs_index, size_bytes):
                    return 0.0
            """
        )
        report = lint_sources({"phy/error.py": source}, rules=["RL105"])
        assert report.new_findings == []
        assert [
            (p.kind, p.scalar, p.batch) for p in report.parity_pairs
        ] == [
            (
                "method",
                "phy/error.py::ErrorModel.per",
                "phy/error.py::ErrorModel.per_array",
            )
        ]

    def test_drifted_array_twin_fires(self):
        source = textwrap.dedent(
            """
            class ErrorModel:
                def per(self, snr_db, mcs_index, size_bytes):
                    return 0.0

                def per_array(self, snr_db, size_bytes):
                    return 0.0
            """
        )
        report = lint_sources({"phy/error.py": source}, rules=["RL105"])
        assert [f.rule for f in report.new_findings] == ["RL105"]
        assert "scalar base ErrorModel.per" in report.new_findings[0].message


class TestRealTree:
    def test_repro_tree_parity_contract(self):
        """The acceptance contract: the shipped twins all verify clean."""
        report = run_lint(rules=["RL105"], use_baseline=False)
        assert report.new_findings == []
        verified = {p.scalar for p in report.parity_pairs} | {
            p.batch for p in report.parity_pairs
        }
        required_fragments = [
            "channel/fading.py",       # Batch shadowing/fading twins
            "channel/channel.py",      # BatchAerialChannel
            "phy/error.py",            # per/per_array method twins
            "phy/rate_control.py",     # Batch rate controllers
            "net/batchlink.py",        # BatchWirelessLink
        ]
        for fragment in required_fragments:
            assert any(fragment in name for name in verified), (
                f"no verified parity pair touches {fragment}; "
                f"verified={sorted(verified)}"
            )
