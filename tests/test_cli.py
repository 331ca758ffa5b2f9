"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import experiment_registry, main


class TestRegistry:
    def test_contains_paper_and_ablation_experiments(self):
        registry = experiment_registry()
        assert "fig7" in registry
        assert "table3+4" in registry
        assert "ablation-colluders" in registry
        assert "ablation-cross-job" in registry
        assert "latency-study" in registry
        assert "fig4" in registry
        assert len(registry) == 23


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out
        assert "ablation-aggregators" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table3+4"]) == 0
        out = capsys.readouterr().out
        assert "verification" in out
        assert "0.495" in out

    def test_run_fig6_with_seed(self, capsys):
        assert main(["run", "fig6", "--seed", "7"]) == 0
        assert "conservative" in capsys.readouterr().out

    def test_run_csv_output(self, capsys):
        assert main(["run", "fig6", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "required_accuracy,conservative,binary_search"
        assert "," in out.splitlines()[1]

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_plan(self, capsys):
        code = main(
            [
                "plan",
                "--accuracy", "0.9",
                "--budget", "100",
                "--mu", "0.7",
                "--rate", "50",
                "--window", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workers per item" in out
        assert "limited by" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_runs_mixed_queries_through_one_service(self, capsys):
        assert main(["serve", "--seed", "7", "--slots", "4"]) == 0
        out = capsys.readouterr().out
        assert "2 tenants" in out
        # Per-handle progress lines while the service is pumping...
        assert "running" in out
        assert "[acme  ]" in out and "[globex]" in out
        # ...and a terminal summary once it drains.
        assert "-- service idle --" in out
        assert out.count("done") >= 3
        assert "total spend $" in out

    def test_serve_is_deterministic(self, capsys):
        assert main(["serve", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_asyncio_runs_through_service_mux(self, capsys):
        assert main(["serve", "--seed", "7", "--asyncio"]) == 0
        out = capsys.readouterr().out
        assert "2 services" in out and "event loop" in out
        # Interleaved per-handle progress lines streamed from updates()...
        assert "[acme  ]" in out and "[globex]" in out
        assert "running" in out
        # ...and a terminal summary once every service drains.
        assert "-- mux idle --" in out
        assert out.count("done") >= 3
        assert "total spend $" in out

    def test_serve_asyncio_is_deterministic(self, capsys):
        assert main(["serve", "--seed", "7", "--asyncio"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--seed", "7", "--asyncio"]) == 0
        assert capsys.readouterr().out == first


class TestExplainAndPreAdmit:
    """The plan-first lifecycle on the CLI (DESIGN.md §10)."""

    def test_explain_prints_plan_tables(self, capsys):
        assert main(["explain", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "workers per item" in out
        assert "projected spend" in out
        assert "expected accuracy" in out
        # Uncapped tenants: every demo query admits.
        assert out.count("ADMIT") == 3
        assert "REJECT" not in out
        assert "planning is pure" in out

    def test_explain_rejects_with_counter_offer_under_a_small_cap(self, capsys):
        assert main(["explain", "--seed", "7", "--tenant-budget", "0.1"]) == 0
        out = capsys.readouterr().out
        # The two 3-HIT TSA queries (~$0.225) exceed the $0.10 cap; the
        # 1-HIT IT query (~$0.075) fits.
        assert out.count("REJECT") == 2
        assert out.count("ADMIT") == 1
        assert out.count("counter-offer") == 2
        assert "workers/item" in out

    def test_explain_is_deterministic(self, capsys):
        args = ["explain", "--seed", "7", "--tenant-budget", "0.1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_serve_pre_admit_plans_then_matches_plain_serve(self, capsys):
        assert main(["serve", "--seed", "7"]) == 0
        plain = capsys.readouterr().out
        assert main(["serve", "--seed", "7", "--pre-admit"]) == 0
        pre = capsys.readouterr().out
        assert "plan [" in pre and "reserves $" in pre
        assert "plan-first reservations" in pre
        # Reservation-gated execution is bit-identical to the reactive
        # path on uncapped tenants: same progress, results and spend.
        plan_lines = len(pre.splitlines()) - len(plain.splitlines())
        assert pre.splitlines()[plan_lines:][1:] == plain.splitlines()[1:]

    def test_serve_pre_admit_asyncio(self, capsys):
        assert main(["serve", "--seed", "7", "--asyncio", "--pre-admit"]) == 0
        out = capsys.readouterr().out
        assert "plan [" in out
        assert "-- mux idle --" in out
        assert out.count("done") >= 3


class TestRecordReplay:
    """The `record` / `replay` subcommands (DESIGN.md §9)."""

    def _record(self, tmp_path, capsys, *extra):
        trace = tmp_path / "trace.jsonl"
        args = ["record", "--out", str(trace), "--seed", "5", *extra]
        assert main(args) == 0
        out = capsys.readouterr().out
        return trace, out

    def test_record_then_replay_round_trips(self, tmp_path, capsys):
        trace, record_out = self._record(tmp_path, capsys)
        assert "trace fingerprint" in record_out
        assert trace.exists()
        assert main(["replay", str(trace)]) == 0
        replay_out = capsys.readouterr().out
        assert "bit for bit" in replay_out
        # The fingerprint digest the replay prints matches the recording's.
        fingerprint = [
            line for line in record_out.splitlines() if "fingerprint" in line
        ][0]
        assert fingerprint in replay_out.splitlines()
        digest = [
            line for line in record_out.splitlines() if "outcome digest" in line
        ][0]
        assert digest in replay_out.splitlines()

    def test_record_cancel_scenario(self, tmp_path, capsys):
        trace, out = self._record(
            tmp_path, capsys, "--scenario", "cancel-mid-flight"
        )
        assert "cancel-mid-flight" in out
        assert "cancelled" in out
        assert main(["replay", str(trace)]) == 0
        assert "bit for bit" in capsys.readouterr().out

    def test_replay_tampered_trace_fails(self, tmp_path, capsys):
        trace, _ = self._record(tmp_path, capsys)
        text = trace.read_text()
        trace.write_text(text.replace('"positive"', '"negative"', 1))
        assert main(["replay", str(trace)]) == 2
        assert "trace unreadable" in capsys.readouterr().out

    def test_replay_truncated_trace_fails(self, tmp_path, capsys):
        trace, _ = self._record(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["replay", str(trace)]) == 2
        assert "truncated" in capsys.readouterr().out

    def test_replay_golden_traces_from_cli(self, capsys):
        """The CI gate's CLI form: replay the checked-in goldens."""
        from pathlib import Path

        traces = Path(__file__).parent / "data" / "traces"
        for name in (
            "mixed_service.jsonl",
            "cancel_mid_flight.jsonl",
            "preadmission.jsonl",
        ):
            assert main(["replay", str(traces / name)]) == 0
            assert "bit for bit" in capsys.readouterr().out

    def test_record_preadmission_scenario(self, tmp_path, capsys):
        trace, out = self._record(
            tmp_path, capsys, "--scenario", "preadmission"
        )
        assert "preadmission" in out
        assert main(["replay", str(trace)]) == 0
        assert "bit for bit" in capsys.readouterr().out


class TestServeJournal:
    """`serve --journal` + `recover`: the CLI face of DESIGN.md §12."""

    def _digest_line(self, out: str) -> str:
        return [line for line in out.splitlines() if "digest" in line][-1]

    def test_serve_journal_then_recover_matches(self, tmp_path, capsys):
        journal = tmp_path / "serve.journal.jsonl"
        assert main(["serve", "--journal", str(journal), "--slots", "2"]) == 0
        serve_out = capsys.readouterr().out
        assert journal.exists()
        serve_digest = self._digest_line(serve_out).split()[-1]
        assert main(["recover", str(journal)]) == 0
        recover_out = capsys.readouterr().out
        assert "recovered 3 queries" in recover_out
        assert self._digest_line(recover_out).endswith(serve_digest)

    def test_recover_after_torn_crash(self, tmp_path, capsys):
        journal = tmp_path / "serve.journal.jsonl"
        assert main(["serve", "--journal", str(journal), "--slots", "2"]) == 0
        serve_digest = self._digest_line(capsys.readouterr().out).split()[-1]
        # Crash simulation: drop the journal tail, leave a torn write.
        lines = journal.read_bytes().split(b"\n")
        journal.write_bytes(b"\n".join(lines[:30]) + b"\n" + b'{"k":"ev","t')
        assert main(["recover", str(journal)]) == 0
        out = capsys.readouterr().out
        assert self._digest_line(out).endswith(serve_digest)
        assert "re-executed" in out

    def test_recover_empty_journal_fails(self, tmp_path, capsys):
        journal = tmp_path / "empty.journal.jsonl"
        journal.write_bytes(b"")
        assert main(["recover", str(journal)]) == 2
        assert "nothing to recover" in capsys.readouterr().out

    def test_journal_with_asyncio_rejected(self, tmp_path, capsys):
        journal = tmp_path / "serve.journal.jsonl"
        code = main(["serve", "--journal", str(journal), "--asyncio"])
        assert code == 2
        assert "drop --asyncio" in capsys.readouterr().out
        assert not journal.exists()


class TestProfile:
    def test_profile_prints_outcome_digest_and_top_n(self, capsys):
        assert main(["profile", "mixed-service", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "outcome digest     : 0ecc19aa17d1b5fc" in out
        assert "cProfile top 3 by cumulative:" in out
        assert "List reduced from" in out and "to 3 due to restriction <3>" in out
