"""The ``freac serve`` / ``freac submit`` front ends."""

import json

import pytest

from repro.cli import main
from repro.errors import RequestError
from repro.service.frontend import parse_request


class TestParseRequest:
    def test_basic_line(self):
        assert parse_request("GEMM 8") == ("GEMM", 8, {})

    def test_options(self):
        benchmark, items, kwargs = parse_request(
            "aes 4 priority=2 tile=2 slices=2 seed=9 timeout=1.5"
        )
        assert (benchmark, items) == ("aes", 4)
        assert kwargs == {
            "priority": 2, "mccs_per_tile": 2, "slices": 2,
            "seed": 9, "timeout_s": 1.5,
        }

    def test_comments_and_blanks_skipped(self):
        assert parse_request("  # just a comment") is None
        assert parse_request("\n") is None
        assert parse_request("VADD 2  # trailing comment") == ("VADD", 2, {})

    @pytest.mark.parametrize("line", [
        "VADD", "VADD two", "VADD 2 bogus=1", "VADD 2 priority=x",
        "VADD 2 priority",
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(RequestError):
            parse_request(line)


class TestSubmitCommand:
    def test_submit_roundtrip(self, capsys):
        assert main(["submit", "VADD", "--items", "4"]) == 0
        out = capsys.readouterr().out
        assert "VADD" in out and "verified=yes" in out

    def test_submit_unknown_benchmark(self, capsys):
        assert main(["submit", "NOPE", "--items", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_submit_uses_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "programs")
        assert main(["submit", "VADD", "--items", "2",
                     "--cache-dir", cache_dir]) == 0
        assert "cache=miss" in capsys.readouterr().out
        assert main(["submit", "VADD", "--items", "2",
                     "--cache-dir", cache_dir]) == 0
        # Second process-equivalent run warms from disk.
        assert "cache=hit" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_request_file(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "VADD 4\n"
            "DOT 4 priority=2\n"
            "# a comment\n"
            "VADD 2 slices=2\n"
        )
        stats_json = tmp_path / "stats.json"
        code = main(["serve", "--requests", str(requests),
                     "--stats-json", str(stats_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("verified=yes") == 3
        stats = json.loads(stats_json.read_text())
        assert stats["completed"] == 3
        assert stats["cache"]["misses"] >= 1

    def test_serve_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("VADD 2\n"))
        assert main(["serve"]) == 0
        assert "verified=yes" in capsys.readouterr().out

    def test_serve_refuses_bad_request_lines(self, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("VADD 2\nNOPE 4\n")
        code = main(["serve", "--requests", str(requests)])
        captured = capsys.readouterr()
        assert code == 1
        assert "refused" in captured.err
        assert "verified=yes" in captured.out   # good request still served

    def test_serve_refuses_unbuildable_requests(self, tmp_path, capsys):
        """A LUT width or tile size the device cannot build is refused
        at submit; the rest of the stream is still served."""
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "VADD 4\n"
            "DOT 4 lut=3\n"
            "DOT 4 tile=0\n"
            "NW 2 tile=2\n"
            "DOT 4 tile=16\n"
        )
        stats_json = tmp_path / "stats.json"
        code = main(["serve", "--requests", str(requests),
                     "--stats-json", str(stats_json)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("refused") == 3
        assert captured.out.count("verified=yes") == 2
        assert json.loads(stats_json.read_text())["completed"] == 2

    def test_serve_rejects_the_removed_engine_key(self, tmp_path, capsys):
        """There is one execution engine, so ``engine=`` is no longer
        a request key: the line is refused, naming the known keys."""
        with pytest.raises(RequestError, match="known keys") as refused:
            parse_request("DOT 16 engine=reference")
        assert "engine" not in str(refused.value).split("known keys")[1]
        requests = tmp_path / "requests.txt"
        requests.write_text("DOT 16 engine=reference\n")
        assert main(["serve", "--requests", str(requests)]) == 2
        assert "known keys" in capsys.readouterr().err

    def test_serve_missing_file(self, capsys):
        assert main(["serve", "--requests", "/no/such/file"]) == 2

    def test_list_mentions_serving_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "submit" in out and "serve" in out
