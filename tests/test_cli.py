"""Tests for the experiment command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in (
            "table1", "table2", "fig9", "fig10", "fig11", "fig12",
            "solve", "weakscale", "compresscale",
        ):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_command_set_is_exact(self):
        # Timing sweeps live in bench/; no other subcommand (or alias) exists.
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {
            "table1", "table2", "fig9", "fig10", "fig11", "fig12", "solve",
            "weakscale", "compresscale", "trace", "metrics", "serve",
        }

    def test_solve_distributed_flags(self):
        args = build_parser().parse_args(
            ["solve", "--runtime", "distributed", "--nodes", "4", "--distribution", "block"]
        )
        assert args.runtime == "distributed"
        assert args.nodes == 4
        assert args.distribution == "block"

    def test_weakscale_defaults(self):
        args = build_parser().parse_args(["weakscale"])
        assert args.base_n == 512
        assert args.max_nodes == 4
        assert args.distributions is None
        args = build_parser().parse_args(
            ["weakscale", "--distribution", "row", "--distribution", "block"]
        )
        assert args.distributions == ["row", "block"]

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.runtime == "off"
        assert args.workers == 4
        assert args.n == 2048
        assert args.kernel == "yukawa"

    def test_solve_runtime_flags(self):
        args = build_parser().parse_args(
            ["solve", "--n", "512", "--runtime", "parallel", "--workers", "8"]
        )
        assert args.runtime == "parallel"
        assert args.workers == 8
        assert args.n == 512

    def test_solve_runtime_choices_enforced(self):
        for bad in ("bogus", "immediate"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["solve", "--runtime", bad])

    def test_solve_nrhs_and_refine_flags(self):
        args = build_parser().parse_args(["solve"])
        assert args.nrhs == 1 and args.refine is False
        args = build_parser().parse_args(["solve", "--nrhs", "16", "--refine"])
        assert args.nrhs == 16 and args.refine is True
        for bad in ("0", "-4"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["solve", "--nrhs", bad])

    def test_solve_help_documents_runtime_modes(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--help"])
        help_text = capsys.readouterr().out
        assert "--runtime" in help_text
        assert "--workers" in help_text
        for mode in ("off", "deferred", "parallel", "distributed"):
            assert mode in help_text

    @pytest.mark.parametrize("cmd", ["trace", "metrics"])
    def test_phase_command_defaults(self, cmd):
        args = build_parser().parse_args([cmd])
        assert (args.n, args.kernel, args.format) == (512, "yukawa", "hss")
        assert (args.leaf_size, args.max_rank) == (128, 30)
        assert (args.phase, args.runtime) == ("factorize", "parallel")
        assert (args.workers, args.nodes, args.distribution) == (4, 2, "row")
        assert args.seed == 0
        if cmd == "trace":
            assert args.chrome_json is None
        else:
            assert args.json is False and args.output is None

    def test_table2_options(self):
        args = build_parser().parse_args(["table2", "--n", "1024", "--kernel", "yukawa"])
        assert args.n == 1024
        assert args.kernels == ["yukawa"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_table2_small(self, capsys):
        out = main(["table2", "--n", "512", "--kernel", "yukawa"])
        assert "HATRIX" in out
        assert "yukawa" in out
        captured = capsys.readouterr()
        assert "HATRIX" in captured.out

    def test_fig9_small(self):
        out = main(["fig9", "--kernel", "yukawa", "--max-nodes", "8"])
        assert "HATRIX-DTD" in out
        assert "STRUMPACK" in out
        assert "LORAPO" in out

    def test_fig11_small(self):
        out = main(["fig11", "--nodes", "8"])
        assert "O(N) ref" in out

    def test_fig12_small(self):
        out = main(["fig12", "--n", "16384", "--nodes", "8"])
        assert "Leaf size" in out

    def test_solve_sequential_smoke(self):
        out = main(["solve", "--n", "512", "--leaf-size", "64", "--max-rank", "24"])
        assert "runtime=off" in out
        assert "solve error" in out

    @pytest.mark.parametrize("fmt", ["hss", "blr2", "hodlr"])
    def test_solve_single_leaf_is_a_one_line_error(self, fmt, capsys):
        """n <= leaf_size is refused at build time with argparse's error, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--format", fmt, "--n", "100", "--leaf-size", "128"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("repro: error: ")
        assert "at least one level of partitioning" in errors[0]

    def test_solve_parallel_smoke(self):
        """End-to-end solve through the thread-pool runtime path."""
        out = main(
            [
                "solve",
                "--n", "512",
                "--leaf-size", "64",
                "--max-rank", "24",
                "--runtime", "parallel",
                "--workers", "4",
            ]
        )
        assert "runtime=parallel workers=4" in out
        # the parallel factorization must still solve to direct-solver accuracy
        err = float(out.split("solve error")[1].split()[0])
        assert err < 1e-10

    def test_solve_deferred_smoke(self):
        out = main(["solve", "--n", "512", "--leaf-size", "64", "--max-rank", "24", "--runtime", "deferred"])
        assert "runtime=deferred" in out

    def test_solve_distributed_smoke(self):
        """End-to-end solve through the multi-process distributed backend."""
        import os

        if not hasattr(os, "fork"):
            pytest.skip("distributed backend requires fork (POSIX)")
        out = main(
            [
                "solve",
                "--n", "512",
                "--leaf-size", "64",
                "--max-rank", "24",
                "--runtime", "distributed",
                "--nodes", "2",
                "--distribution", "row",
            ]
        )
        assert "runtime=distributed nodes=2 distribution=row" in out
        err = float(out.split("solve error")[1].split()[0])
        assert err < 1e-10

    def test_solve_multi_rhs_refine_smoke(self):
        """Blocked multi-RHS solve with one refinement step through the runtime."""
        out = main(
            [
                "solve",
                "--n", "512",
                "--leaf-size", "64",
                "--max-rank", "24",
                "--runtime", "parallel",
                "--nrhs", "8",
                "--refine",
            ]
        )
        assert "nrhs=8" in out
        assert "refine=1" in out
        assert "solves/s" in out
        err = float(out.split("solve error")[1].split()[0])
        assert err < 1e-10

    def test_trace_prints_breakdown(self):
        out = main(["trace", "--runtime", "deferred", "--n", "512", "--leaf-size", "128", "--max-rank", "30"])
        assert out.startswith("Measured trace: phase=factorize runtime=deferred")
        assert "compute [s]" in out and "idle [s]" in out
        assert "-- by task kind --" in out

    def test_metrics_output_is_prometheus_text(self):
        from repro.obs import parse_prometheus

        out = main(["metrics", "--runtime", "deferred", "--n", "512", "--leaf-size", "128", "--max-rank", "30"])
        families = parse_prometheus(out + "\n")
        tasks = families["repro_tasks_executed_total"]
        assert tasks["kind"] == "counter"
        # the 512 / 128 tree factorizes in 16 tasks
        assert sum(value for _, _, value in tasks["samples"]) == 16
