"""The ``python -m repro.eval`` command-line entry point."""

import pytest

from repro.eval.__main__ import build_parser, main
from repro.eval.experiments import fig8


class TestCli:
    def test_single_artifact(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "[table5" in out

    def test_semantics_artifact(self, capsys):
        assert main(["semantics"]) == 0
        assert "design space" in capsys.readouterr().out

    def test_multiple_artifacts(self, capsys):
        assert main(["table5", "semantics"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out and "design space" in out

    def test_unknown_artifact_fails(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown artifacts" in capsys.readouterr().err

    def test_scaled_run(self, capsys):
        assert main(["fig8", "--scale", "0.2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_fig8_is_the_benchmarks_fig8(self, capsys):
        """Without ``--seed`` each artifact runs on its own default
        seed, so the CLI prints what the benchmark computes."""
        assert main(["fig8"]) == 0
        expected = fig8.run(n_objects_per_profile=1000).render()
        assert expected in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["all"])
        assert args.txs == 6_000
        assert args.iters == 4_000
        assert args.threads == 4
