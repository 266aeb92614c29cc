"""Tests for the repro-topk command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.loader import load_rankings


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "rankings.tsv"
    exit_code = main(["generate", str(path), "--dataset", "yago", "--n", "120", "--k", "10"])
    assert exit_code == 0
    return path


class TestGenerate:
    def test_generates_tsv(self, dataset_file):
        rankings = load_rankings(dataset_file)
        assert len(rankings) == 120
        assert rankings.k == 10

    def test_generates_json(self, tmp_path, capsys):
        path = tmp_path / "rankings.json"
        assert main(["generate", str(path), "--n", "50", "--k", "5"]) == 0
        captured = capsys.readouterr()
        assert "50 rankings" in captured.out
        assert len(load_rankings(path)) == 50


class TestQuery:
    def test_query_with_coarse_drop(self, dataset_file, capsys):
        rankings = load_rankings(dataset_file)
        query_items = ",".join(str(item) for item in rankings[0].items)
        exit_code = main(
            ["query", str(dataset_file), "--query", query_items, "--theta", "0.1",
             "--algorithm", "Coarse+Drop", "--theta-c", "0.05"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "rankings within theta" in captured.out
        assert "rid=0" in captured.out

    def test_query_with_minimal_fv(self, dataset_file, capsys):
        rankings = load_rankings(dataset_file)
        query_items = ",".join(str(item) for item in rankings[3].items)
        exit_code = main(
            ["query", str(dataset_file), "--query", query_items, "--algorithm", "MinimalF&V"]
        )
        assert exit_code == 0
        assert "distance calls" in capsys.readouterr().out

    def test_query_rejects_malformed_items(self, dataset_file, capsys):
        exit_code = main(["query", str(dataset_file), "--query", "1,two,3"])
        assert exit_code == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_query_unknown_algorithm_rejected(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["query", str(dataset_file), "--query", "1,2,3", "--algorithm", "Nope"])


class TestCompareAndReports:
    def test_compare_prints_table(self, capsys):
        exit_code = main(
            ["compare", "--dataset", "yago", "--n", "80", "--k", "10",
             "--queries", "3", "--thetas", "0.1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "algorithm" in output
        assert "Coarse+Drop" in output

    def test_figure3_report(self, capsys):
        exit_code = main(["figure", "3", "--n", "150", "--k", "10"])
        assert exit_code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_table6_report(self, capsys):
        exit_code = main(["table", "6", "--n", "100", "--k", "10"])
        assert exit_code == 0
        assert "Table 6" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "42"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_client_protocol_flag_is_gone(self, capsys):
        """There is one wire protocol; nothing is left to pin."""
        with pytest.raises(SystemExit) as caught:
            main(["client", "--protocol", "1", "--admin", "ping"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --protocol" in capsys.readouterr().err


class TestIngest:
    @staticmethod
    def write_stream(path, mutations):
        import json

        path.write_text("\n".join(json.dumps(mutation) for mutation in mutations) + "\n")
        return path

    @pytest.fixture()
    def mutation_file(self, tmp_path):
        mutations = [{"op": "insert", "items": [i, i + 10, i + 20, i + 30]} for i in range(12)]
        mutations.append({"op": "delete", "key": 2})
        mutations.append({"op": "upsert", "key": 0, "items": [9, 19, 29, 39]})
        return self.write_stream(tmp_path / "mutations.jsonl", mutations)

    def test_ingest_reports_stats(self, mutation_file, capsys):
        exit_code = main(
            ["ingest", str(mutation_file), "--memtable-threshold", "4", "--max-segments", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "applied 14 mutation(s)" in output
        assert "inserts=12 deletes=1 upserts=1" in output
        assert "live rankings: 11" in output

    def test_ingest_with_probes(self, mutation_file, capsys):
        exit_code = main(
            ["ingest", str(mutation_file), "--query", "0,10,20,30", "--theta", "0.2",
             "--knn", "2", "--probe-every", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.count("probe @") == 3  # after 5, 10, and the final 14
        assert "2-NN" in output

    def test_ingest_persists_and_replays(self, mutation_file, tmp_path, capsys):
        live_dir = tmp_path / "live"
        assert main(["ingest", str(mutation_file), "--dir", str(live_dir)]) == 0
        capsys.readouterr()
        more = self.write_stream(
            tmp_path / "more.jsonl", [{"op": "insert", "items": [100, 101, 102, 103]}]
        )
        assert main(["ingest", str(more), "--dir", str(live_dir), "--snapshot"]) == 0
        output = capsys.readouterr().out
        assert "replayed 14 WAL record(s)" in output
        assert "live rankings: 12" in output
        assert "snapshot written" in output
        assert (live_dir / "manifest.rbf").exists()
        assert (live_dir / "wal.rbf").read_bytes() == b""  # truncated

    def test_ingest_reports_durability_mode(self, mutation_file, tmp_path, capsys):
        live_dir = tmp_path / "durable"
        exit_code = main(
            ["ingest", str(mutation_file), "--dir", str(live_dir), "--commit-batch", "4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "durability: group-commit (batch=4)" in output

    def test_ingest_warns_about_non_durable_acknowledgements(self, mutation_file, capsys):
        assert main(["ingest", str(mutation_file)]) == 0
        output = capsys.readouterr().out
        assert "durability: in-memory" in output
        assert "may be lost" in output

    def test_ingest_binary_format_persists_and_replays(self, mutation_file, tmp_path, capsys):
        """A fresh --dir is RBF and nothing else (replay: the test above)."""
        live_dir = tmp_path / "binary"
        assert main(["ingest", str(mutation_file), "--dir", str(live_dir), "--snapshot"]) == 0
        assert "durability: no-sync  (" in capsys.readouterr().out  # one format: not reported
        assert (live_dir / "wal.rbf").exists()
        assert (live_dir / "manifest.rbf").exists()
        assert not [p for p in live_dir.rglob("*") if p.suffix in (".json", ".jsonl")]

    def test_ingest_format_migrates_json_directory(self, tmp_path, capsys):
        """A JSON-era --dir is upgraded on open: replay reported, no wal.jsonl left."""
        live_dir = tmp_path / "migrate"
        live_dir.mkdir()
        (live_dir / "wal.jsonl").write_text(
            '{"seq":1,"op":"insert","key":0,"items":[0,10,20,30]}\n'
            '{"seq":2,"op":"insert","key":1,"items":[1,11,21,31]}\n'
            '{"seq":3,"op":"delete","key":0}\n',
            encoding="utf-8",
        )
        more = self.write_stream(
            tmp_path / "more.jsonl", [{"op": "insert", "items": [100, 101, 102, 103]}]
        )
        assert main(["ingest", str(more), "--dir", str(live_dir)]) == 0
        output = capsys.readouterr().out
        assert "replayed 3 WAL record(s)" in output
        assert "live rankings: 2" in output
        assert not (live_dir / "wal.jsonl").exists()
        assert (live_dir / "manifest.rbf").exists()

    def test_ingest_durability_flags_require_dir(self, mutation_file, capsys):
        assert main(["ingest", str(mutation_file), "--fsync"]) == 2
        assert "require --dir" in capsys.readouterr().err

    def test_ingest_rejects_conflicting_durability_flags(self, mutation_file, tmp_path, capsys):
        exit_code = main(
            ["ingest", str(mutation_file), "--dir", str(tmp_path / "x"),
             "--fsync", "--commit-batch", "8"]
        )
        assert exit_code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_ingest_skips_malformed_lines(self, tmp_path, capsys):
        stream = self.write_stream(
            tmp_path / "dirty.jsonl",
            [
                {"op": "insert", "items": [1, 2, 3]},
                {"op": "explode"},
                {"op": "delete", "key": 99},
                {"op": "insert", "items": [4, 5, 6]},
            ],
        )
        assert main(["ingest", str(stream)]) == 0
        captured = capsys.readouterr()
        assert "applied 2 mutation(s)" in captured.out
        assert "skipped 2" in captured.out
        assert "line 2" in captured.err
        assert "line 3" in captured.err

    def test_ingest_rejects_bad_flags(self, mutation_file, capsys):
        assert main(["ingest", str(mutation_file), "--memtable-threshold", "0"]) == 2
        assert main(["ingest", str(mutation_file), "--snapshot"]) == 2
        assert main(["ingest", str(mutation_file), "--query", "1,two"]) == 2
        assert capsys.readouterr().err.count("error:") == 3

    def test_ingest_missing_stream_reports_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read mutation stream" in capsys.readouterr().err

    def test_ingest_probe_size_mismatch_reports_error(self, mutation_file, capsys):
        # data has k=4; a k=2 probe must produce an error message, not a traceback
        exit_code = main(
            ["ingest", str(mutation_file), "--query", "1,2", "--probe-every", "5"]
        )
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestServeShardSpec:
    """Validation of the remote-topology serve flags (no sockets involved)."""

    def test_shard_requires_static_and_a_file(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        dataset = tmp_path / "data.tsv"
        assert cli_main(["generate", str(dataset), "--n", "10", "--k", "4"]) == 0
        capsys.readouterr()
        assert cli_main(["serve", str(dataset), "--shard", "0/2", "--live"]) == 2
        assert "--live" in capsys.readouterr().err
        assert cli_main(["serve", "--shard", "0/2"]) == 2
        assert "rankings file" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["2", "a/b", "2/2", "-1/2", "0/0"])
    def test_malformed_shard_specs_are_rejected(self, tmp_path, capsys, spec):
        from repro.cli import main as cli_main

        dataset = tmp_path / "data.tsv"
        assert cli_main(["generate", str(dataset), "--n", "10", "--k", "4"]) == 0
        capsys.readouterr()
        assert cli_main(["serve", str(dataset), f"--shard={spec}"]) == 2
        assert "--shard" in capsys.readouterr().err
