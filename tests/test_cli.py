"""Tests for the command-line interface."""

import ctypes
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.table == "all"
        assert args.seeds == [0]

    def test_seed_parsing(self):
        args = build_parser().parse_args(["reproduce", "--seeds", "1,2,3"])
        assert args.seeds == [1, 2, 3]

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--seeds", ","])

    def test_pretrain_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pretrain"])


class TestSimulate:
    def test_prints_json_stats(self, capsys):
        code = main(["simulate", "--seed", "3", "--episodes", "5"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["episodes"] == 5
        assert stats["alarms"] > 0
        assert stats["kg"]["triples"] > 0


class TestReproduce:
    def test_single_stats_table(self, capsys, tmp_path):
        code = main(["reproduce", "--table", "3",
                     "--out", str(tmp_path / "results")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert (tmp_path / "results" / "table_3.txt").exists()

    def test_unknown_table(self, capsys):
        assert main(["reproduce", "--table", "99"]) == 2


class TestEncodeRoundTrip:
    def test_pretrain_then_encode(self, capsys, tmp_path):
        """Tiny end-to-end CLI flow: pretrain -> checkpoint -> encode."""
        code = main(["pretrain", "--out", str(tmp_path / "ckpt"),
                     "--strategy", "stl",
                     "--stage1-steps", "2", "--stage2-steps", "2"])
        assert code == 0
        capsys.readouterr()
        code = main(["encode", "--checkpoint", str(tmp_path / "ckpt"),
                     "--text", "[ALM] The link is down"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line)
        assert payload["text"].startswith("[ALM]")
        assert len(payload["embedding"]) == 32


class TestLint:
    """``python -m repro lint`` forwards to the repro.lint driver."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_parser_has_lint_subcommand(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"

    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", "--root", str(self.ROOT),
                     "--baseline", str(self.ROOT / "tools" /
                                       "lint_baseline.json")])
        assert code == 0
        assert "repro-lint:" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL001" in out and "RL007" in out

    def test_json_format(self, capsys):
        code = main(["lint", "--root", str(self.ROOT), "--format", "json",
                     str(self.ROOT / "src" / "repro" / "lint")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new_errors"] == 0

    def test_unknown_rule_code_is_usage_error(self, capsys):
        code = main(["lint", "--root", str(self.ROOT), "--select", "RL998",
                     str(self.ROOT / "src" / "repro" / "lint")])
        assert code == 2
        assert "RL998" in capsys.readouterr().err


class TestBlasPinning:
    """The serve entry points run numpy's OpenBLAS on one thread."""

    @pytest.fixture
    def openblas(self):
        from repro.cli import _bundled_openblas

        library = _bundled_openblas()
        if library is None:
            pytest.skip("numpy bundles no scipy-openblas thread setter")
        getter = library.scipy_openblas_get_num_threads64_
        getter.restype = ctypes.c_int
        setter = library.scipy_openblas_set_num_threads64_
        setter.argtypes = [ctypes.c_int]
        before = getter()
        yield getter, setter
        setter(before)

    def test_pins_to_one_thread(self, openblas, monkeypatch):
        from repro.cli import _pin_blas_to_one_thread

        getter, setter = openblas
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        setter(2)
        assert _pin_blas_to_one_thread()
        assert getter() == 1

    def test_respects_the_environment(self, openblas, monkeypatch):
        from repro.cli import _pin_blas_to_one_thread

        getter, setter = openblas
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        setter(2)
        chosen = getter()  # OpenBLAS caps it at its own thread limit
        assert not _pin_blas_to_one_thread()
        assert getter() == chosen
