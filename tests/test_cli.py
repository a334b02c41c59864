"""Tests for the command-line interface."""

from __future__ import annotations

import signal

import pytest

from repro.cli import _make_sampler, build_parser, main
from repro.graphs import load_tag_graph


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset TSV + targets file shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    graph_path = root / "g.tsv"
    code = main(
        ["dataset", "lastfm", str(graph_path), "--scale", "0.3",
         "--targets", "20", "--seed", "0"]
    )
    assert code == 0
    return graph_path, graph_path.with_suffix(".targets")


class TestDatasetCommand:
    def test_writes_loadable_graph(self, workspace, capsys):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        assert graph.num_nodes > 0
        targets = [
            int(x) for x in targets_path.read_text().split() if x.strip()
        ]
        assert len(targets) == 20
        assert all(0 <= t < graph.num_nodes for t in targets)

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "nope", str(tmp_path / "x.tsv")])

    def test_main_restores_sigterm_handler(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        code = main(
            ["dataset", "lastfm", str(tmp_path / "g.tsv"), "--scale",
             "0.1", "--targets", "5", "--seed", "0"]
        )
        assert code == 0
        assert signal.getsignal(signal.SIGTERM) is before


class TestSeedsCommand:
    def test_outputs_seeds(self, workspace, capsys):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        tags = ",".join(graph.tags[:3])
        code = main(
            ["seeds", str(graph_path), "--targets-file", str(targets_path),
             "-k", "2", "--tags", tags, "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("seeds: ")
        seed_line = out.splitlines()[0].split(": ", 1)[1]
        assert len(seed_line.split(",")) == 2

    @pytest.mark.parametrize("engine", ["trs", "lltrs"])
    def test_engines(self, workspace, capsys, engine):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        tags = ",".join(graph.tags[:3])
        code = main(
            ["seeds", str(graph_path), "--targets-file", str(targets_path),
             "-k", "1", "--tags", tags, "--engine", engine]
        )
        assert code == 0


class TestSamplerFlags:
    @pytest.mark.parametrize("argv", [
        ["seeds", "g.tsv", "--targets-file", "t", "--tags", "a", "-k", "2"],
        ["joint", "g.tsv", "--targets-file", "t", "-k", "2", "-r", "2"],
        ["spread", "g.tsv", "--targets-file", "t", "--seeds", "0",
         "--tags", "a"],
        ["compare", "g.tsv", "--targets-file", "t", "--tags", "a",
         "-k", "2"],
    ], ids=lambda argv: argv[0])
    def test_workers_implies_engine(self, argv):
        """Every run gets one bit-parallel engine, sized by --workers."""
        parser = build_parser()
        for extra, workers in (([], 1), (["--workers", "2"], 2)):
            sampler = _make_sampler(parser.parse_args(argv + extra))
            try:
                assert sampler.mode == "bitparallel"
                assert sampler.workers == workers
            finally:
                sampler.close()

    def test_workers_run_matches_serial_engine(self, workspace, capsys):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        argv = ["seeds", str(graph_path), "--targets-file", str(targets_path),
                "-k", "2", "--tags", ",".join(graph.tags[:3]), "--seed", "0"]
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out.splitlines()[:2]
        assert main(argv) == 0
        serial = capsys.readouterr().out.splitlines()[:2]
        assert pooled == serial

    def test_resume_without_checkpoint_dir_is_usage_error(
        self, workspace, capsys
    ):
        graph_path, targets_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["seeds", str(graph_path), "--targets-file",
                  str(targets_path), "-k", "1", "--tags", "a", "--resume"])
        assert exc.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_removed_sampler_mode_is_usage_error(self, workspace, capsys):
        """``--sampler`` is gone: there is one engine, so any value of
        it is a usage error, on the batch commands and on serve."""
        graph_path, targets_path = workspace
        seeds = ["seeds", str(graph_path), "--targets-file",
                 str(targets_path), "-k", "1", "--tags", "a"]
        serve = ["serve", str(graph_path)]
        for argv in (seeds, serve):
            for mode in ("bitparallel", "scalar", "vectorized"):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--sampler", mode])
                assert exc.value.code == 2
                assert "unrecognized arguments: --sampler" in (
                    capsys.readouterr().err
                )


class TestServeRuntimeFlags:
    """``serve`` refuses the shared runtime flags it cannot honour."""

    @pytest.mark.parametrize("extra, flag", [
        (["--checkpoint-dir", "ckpt"], "--checkpoint-dir"),
        (["--checkpoint-dir", "ckpt", "--resume"], "--checkpoint-dir"),
        (["--resume"], "--resume"),
    ], ids=["checkpoint-dir", "checkpoint-dir-resume", "resume"])
    def test_rejected_with_usage_error(
        self, workspace, capsys, tmp_path, extra, flag
    ):
        graph_path, _targets = workspace
        extra = [str(tmp_path / a) if a == "ckpt" else a for a in extra]
        with pytest.raises(SystemExit) as exc:
            main(["serve", str(graph_path), *extra])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_single_process_retries_accepted(
        self, workspace, capsys, monkeypatch
    ):
        import io
        import json
        import sys

        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        targets = [
            int(x) for x in targets_path.read_text().split() if x.strip()
        ]
        request = {"id": 1, "op": "find_seeds", "targets": targets,
                   "tags": list(graph.tags[:3]), "k": 2, "engine": "trs",
                   "seed": 0}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
        assert main(["serve", str(graph_path), "--retries", "3"]) == 0
        reply = json.loads(capsys.readouterr().out.splitlines()[0])
        assert reply["ok"] and len(reply["seeds"]) == 2

    def test_fleet_retries_answer_like_single_process(
        self, workspace, capsys, monkeypatch
    ):
        """``--retries`` reaches every fleet worker's engine, so a fleet
        answers exactly as the single-process server does."""
        import io
        import json
        import sys

        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        targets = [
            int(x) for x in targets_path.read_text().split() if x.strip()
        ]
        tags = list(graph.tags[:3])
        script = "".join(json.dumps(r) + "\n" for r in [
            {"id": 1, "op": "find_seeds", "targets": targets, "tags": tags,
             "k": 2, "engine": "trs", "seed": 0},
            {"id": 2, "op": "spread", "seeds": [0, 1], "targets": targets,
             "tags": tags, "num_samples": 64, "seed": 3},
            {"id": 3, "op": "find_seeds", "targets": targets, "tags": tags,
             "k": 2, "engine": "trs", "seed": 0},
        ])

        def answers(*extra):
            monkeypatch.setattr(sys, "stdin", io.StringIO(script))
            assert main(["serve", str(graph_path), "--retries", "2",
                         *extra]) == 0
            replies = [json.loads(line)
                       for line in capsys.readouterr().out.splitlines()]
            for reply in replies:
                assert reply["ok"], reply
                reply.pop("elapsed_ms")
            return replies

        assert answers("--workers", "2") == answers()


class TestTagsCommand:
    def test_outputs_tags(self, workspace, capsys):
        graph_path, targets_path = workspace
        code = main(
            ["tags", str(graph_path), "--targets-file", str(targets_path),
             "-r", "3", "--seeds", "0,1", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("tags: ")


class TestJointCommand:
    def test_iterative(self, workspace, capsys):
        graph_path, targets_path = workspace
        code = main(
            ["joint", str(graph_path), "--targets-file", str(targets_path),
             "-k", "2", "-r", "3", "--max-rounds", "1", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds: " in out and "tags: " in out and "spread: " in out

    def test_baseline_flag(self, workspace, capsys):
        graph_path, targets_path = workspace
        code = main(
            ["joint", str(graph_path), "--targets-file", str(targets_path),
             "-k", "1", "-r", "2", "--baseline", "--seed", "0"]
        )
        assert code == 0


class TestSpreadCommand:
    def test_estimates(self, workspace, capsys):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        tags = ",".join(graph.tags[:2])
        code = main(
            ["spread", str(graph_path), "--targets-file", str(targets_path),
             "--seeds", "0", "--tags", tags, "--samples", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("spread: ")

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompareCommand:
    def test_compares_engines(self, workspace, capsys):
        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        tags = ",".join(graph.tags[:3])
        code = main(
            ["compare", str(graph_path), "--targets-file", str(targets_path),
             "-k", "2", "--tags", tags, "--engines", "trs,lltrs",
             "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trs" in out and "lltrs" in out
        assert "verified spread" in out


class TestLearnCommand:
    def test_learn_round_trip(self, workspace, capsys, tmp_path):
        from repro.learning import simulate_interaction_log

        graph_path, _targets = workspace
        graph = load_tag_graph(graph_path)
        log = simulate_interaction_log(graph, 50, rng=0)
        log_path = tmp_path / "log.csv"
        log.save(log_path)
        out_path = tmp_path / "learned.tsv"
        code = main(
            ["learn", str(log_path), str(graph_path), str(out_path),
             "--window", "20", "--a", "3"]
        )
        assert code == 0
        learned = load_tag_graph(out_path)
        assert learned.num_nodes == graph.num_nodes
        assert learned.num_edges > 0

    def test_learn_bernoulli_method(self, workspace, capsys, tmp_path):
        from repro.learning import simulate_interaction_log

        graph_path, _targets = workspace
        graph = load_tag_graph(graph_path)
        log = simulate_interaction_log(graph, 30, rng=0)
        log_path = tmp_path / "log.csv"
        log.save(log_path)
        out_path = tmp_path / "learned.tsv"
        code = main(
            ["learn", str(log_path), str(graph_path), str(out_path),
             "--method", "bernoulli"]
        )
        assert code == 0


class TestServeCommand:
    def _requests(self, graph, targets):
        tags = list(graph.tags[:2])
        return [
            {"id": 1, "op": "find_seeds", "targets": targets, "tags": tags,
             "k": 2, "engine": "trs", "seed": 0},
            {"id": 2, "op": "find_seeds", "targets": targets, "tags": tags,
             "k": 2, "engine": "trs", "seed": 0},
            {"id": 3, "op": "spread", "seeds": [targets[0]],
             "targets": targets, "tags": tags, "seed": 1},
            {"id": 4, "op": "metrics"},
        ]

    def test_serves_piped_json_queries(
        self, workspace, capsys, monkeypatch, tmp_path
    ):
        import io
        import json
        import sys

        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        targets = [
            int(x) for x in targets_path.read_text().split() if x.strip()
        ]
        requests = self._requests(graph, targets)
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        )
        metrics_path = tmp_path / "serve_metrics.json"
        code = main(
            ["serve", str(graph_path), "--pool-size", "2",
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 4
        by_id = {d["id"]: d for d in lines}
        assert by_id[1]["ok"] and by_id[1]["cache"] == "miss"
        assert by_id[2]["ok"] and by_id[2]["cache"] == "hit"
        assert by_id[1]["seeds"] == by_id[2]["seeds"]
        assert by_id[1]["spread"] == by_id[2]["spread"]
        assert by_id[3]["ok"] and isinstance(by_id[3]["spread"], float)
        assert by_id[4]["metrics"]["counters"]["serve.queries"] == 3
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema"] == "repro.serve.metrics/4"
        assert snapshot["cache"]["builds"] >= 2

    def test_warm_file_prebuilds_assets(
        self, workspace, capsys, monkeypatch, tmp_path
    ):
        import io
        import json
        import sys

        graph_path, targets_path = workspace
        graph = load_tag_graph(graph_path)
        targets = [
            int(x) for x in targets_path.read_text().split() if x.strip()
        ]
        query = {"op": "find_seeds", "targets": targets,
                 "tags": list(graph.tags[:2]), "k": 2,
                 "engine": "trs", "seed": 0}
        warm_path = tmp_path / "warm.json"
        warm_path.write_text(json.dumps([query]), encoding="utf-8")
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(json.dumps({**query, "id": 7}) + "\n"),
        )
        code = main(
            ["serve", str(graph_path), "--warm", str(warm_path)]
        )
        assert code == 0
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert response["ok"]
        assert response["cache"] == "hit"  # the warm file built it

    def test_bad_requests_get_error_responses(
        self, workspace, capsys, monkeypatch
    ):
        import io
        import json
        import sys

        graph_path, _targets = workspace
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO('{"id": 1, "op": "nope"}\nnot json\n'),
        )
        code = main(["serve", str(graph_path)])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert [d["ok"] for d in lines] == [False, False]
        assert lines[0]["type"] == "ReproError"
        assert lines[1]["type"] == "JSONDecodeError"
