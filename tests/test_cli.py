"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def db_json(tmp_path):
    data = {
        "relations": [
            {
                "name": "items",
                "attributes": ["id", "category", "score"],
                "rows": [
                    [1, "a", 9],
                    [2, "a", 7],
                    [3, "b", 6],
                    [4, "b", 4],
                    [5, "c", 8],
                ],
            }
        ]
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestInformational:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "PSPACE-complete" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 4" in out
        assert "δ(t1, t2)" in out  # Figure 2 report

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "10/10 reductions verified" in out
        assert "FAIL" not in out


class TestDiversify:
    def test_basic_run(self, db_json, capsys):
        code = main(
            [
                "diversify",
                "--db", db_json,
                "--query", "Q(X, C, S) :- items(X, C, S)",
                "-k", "3",
                "--objective", "max-sum",
                "--lambda", "0.5",
                "--relevance-attr", "S",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F = " in out
        assert out.count("X=") == 3

    def test_mono_objective(self, db_json, capsys):
        code = main(
            [
                "diversify",
                "--db", db_json,
                "--query", "Q(X, C, S) :- items(X, C, S)",
                "-k", "2",
                "--objective", "mono",
                "--relevance-attr", "S",
                "--distance-attrs", "C",
            ]
        )
        assert code == 0
        assert "F_mono" in capsys.readouterr().out

    def test_greedy_method(self, db_json, capsys):
        code = main(
            [
                "diversify",
                "--db", db_json,
                "--query", "Q(X, C, S) :- items(X, C, S)",
                "-k", "2",
                "--method", "greedy",
            ]
        )
        assert code == 0

    def test_infeasible_k(self, db_json, capsys):
        code = main(
            [
                "diversify",
                "--db", db_json,
                "--query", "Q(X, C, S) :- items(X, C, S)",
                "-k", "99",
            ]
        )
        assert code == 1
        assert "no 99-subset" in capsys.readouterr().out

    def test_csv_directory(self, tmp_path, capsys):
        (tmp_path / "edge.csv").write_text("src,dst\n1,2\n2,3\n1,3\n")
        code = main(
            [
                "diversify",
                "--db", str(tmp_path),
                "--query", "Q(X, Y) :- edge(X, Y)",
                "-k", "2",
            ]
        )
        assert code == 0

    def test_query_with_filter(self, db_json, capsys):
        code = main(
            [
                "diversify",
                "--db", db_json,
                "--query", "Q(X, C, S) :- items(X, C, S), S >= 7",
                "-k", "2",
                "--relevance-attr", "S",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Only items with score ≥ 7 may appear (ids 1, 2, 5).
        assert "X=3" not in out and "X=4" not in out


class TestEngineDispatch:
    """The --algorithm / --cache-stats flags and the kernel-cache path."""

    BASE = [
        "diversify",
        "--query", "Q(X, C, S) :- items(X, C, S)",
        "-k", "3",
        "--objective", "max-sum",
        "--relevance-attr", "S",
    ]

    @pytest.fixture(autouse=True)
    def fresh_engine(self):
        from repro.engine import reset_default_engine

        yield reset_default_engine()

    @pytest.mark.parametrize(
        "algorithm",
        ["auto", "mmr", "greedy_max_sum", "greedy_marginal_max_sum",
         "branch_and_bound_max_sum", "exhaustive", "local_search"],
    )
    def test_algorithm_flag(self, db_json, capsys, algorithm):
        code = main(self.BASE + ["--db", db_json, "--algorithm", algorithm])
        assert code == 0
        out = capsys.readouterr().out
        assert f"algorithm {algorithm}" in out
        assert out.count("X=") == 3

    def test_algorithm_flag_rejects_unknown(self, db_json, capsys):
        code = main(self.BASE + ["--db", db_json, "--algorithm", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and "mmr" in err  # names listed

    def test_algorithm_objective_mismatch_fails_gracefully(self, db_json, capsys):
        code = main(self.BASE + ["--db", db_json, "--algorithm", "greedy_max_min"])
        assert code == 2
        assert "requires F_MM" in capsys.readouterr().err

    def test_cache_stats_flag(self, db_json, capsys):
        code = main(self.BASE + ["--db", db_json, "--cache-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel cache:" in out
        assert "misses=1" in out

    def test_second_identical_invocation_hits_kernel_cache(
        self, db_json, capsys, fresh_engine
    ):
        argv = self.BASE + ["--db", db_json, "--cache-stats"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "hits=0 misses=1" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Same process, same inputs: the session memo returns identical
        # (query, db, δ_rel, δ_dis) objects, so the engine serves the
        # cached ScoringKernel instead of re-materializing Q(D) scores.
        assert "hits=1 misses=1" in second
        assert fresh_engine.stats.hits == 1

    def test_edited_database_is_not_served_stale(self, db_json, capsys, tmp_path):
        argv = self.BASE + ["--db", db_json, "--cache-stats"]
        assert main(argv) == 0
        capsys.readouterr()
        data = json.loads(open(db_json).read())
        data["relations"][0]["rows"].append([6, "d", 10])
        with open(db_json, "w") as fh:
            fh.write(json.dumps(data))
        # Guarantee a fingerprint change even on coarse mtime clocks.
        stat = os.stat(db_json)
        os.utime(db_json, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "X=6" in out  # the new top-scoring row is picked up

    def test_cache_stats_on_infeasible_run(self, db_json, capsys):
        code = main(
            self.BASE[:3] + ["-k", "99", "--db", db_json, "--cache-stats"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no 99-subset" in out
        assert "backend=n/a" in out


class TestJsonOutput:
    """The --json flag emits the DiversifyResponse wire form."""

    BASE = [
        "diversify",
        "--query", "Q(X, C, S) :- items(X, C, S)",
        "-k", "3",
        "--relevance-attr", "S",
        "--json",
    ]

    def test_json_payload_round_trips(self, db_json, capsys):
        from repro.api import DiversifyResponse

        code = main(self.BASE + ["--db", db_json])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        response = DiversifyResponse.from_dict(payload)
        assert response.feasible is True
        assert len(response.rows) == 3
        assert len(response.indices) == 3
        assert response.value is not None

    def test_json_with_cache_stats(self, db_json, capsys):
        code = main(self.BASE + ["--db", db_json, "--cache-stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_cache"]["lookups"] >= 1

    def test_json_infeasible(self, db_json, capsys):
        code = main(self.BASE[:3] + ["-k", "99", "--db", db_json, "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["rows"] is None


class TestSharedEngineFlags:
    """diversify and serve share one EngineConfig flag set."""

    BASE = [
        "diversify",
        "--query", "Q(X, C, S) :- items(X, C, S)",
        "-k", "2",
        "--relevance-attr", "S",
    ]

    def test_storage_flags_route_through_config(self, db_json, capsys):
        code = main(
            self.BASE
            + ["--db", db_json, "--storage", "tiled", "--dtype", "float32",
               "--workers", "2"]
        )
        assert code == 0
        assert "F = " in capsys.readouterr().out

    def test_invalid_combination_rejected(self, db_json, capsys):
        code = main(
            self.BASE + ["--db", db_json, "--storage", "dense", "--dtype",
                         "float32"]
        )
        assert code == 2
        assert "float64-only" in capsys.readouterr().err

    def test_serve_parser_accepts_engine_flags(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--storage", "tiled", "--workers", "2",
             "--result-ttl", "5", "--no-coalesce"]
        )
        assert args.storage == "tiled"
        assert args.workers == 2
        assert args.result_ttl == 5.0
        assert args.no_coalesce is True
        assert args.func.__name__ == "_cmd_serve"

    def test_env_config_layering(self, db_json, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "tiled")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        code = main(self.BASE + ["--db", db_json, "--cache-stats"])
        assert code == 0
        assert "F = " in capsys.readouterr().out


class TestServeShutdown:
    def test_sigterm_removes_spill_segments(self, tmp_path):
        """SIGTERM stops ``serve`` the way Ctrl-C does: it exits 0 and
        leaves no ``tiles-*`` spill directory behind."""
        spill = tmp_path / "spill"
        path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--storage", "tiled"]
        command += ["--block-size", "8", "--max-resident-tiles", "2", "--spill-dir", str(spill)]
        server = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        try:
            line = server.stdout.readline()
            url = re.search(r"serving on (http://\S+)", line).group(1)
            body = {"workload": "synthetic", "params": {"n": 40}, "k": 5}
            request = urllib.request.Request(
                f"{url}/diversify",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
            assert list(spill.glob("tiles-*"))
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        assert not list(spill.glob("tiles-*"))
