"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, _parse_fault, _parse_inputs, _parse_value, main
from repro.harness import (
    ENGINES,
    Collapse,
    Crash,
    Equivocate,
    Garbage,
    Scenario,
    Silent,
    Spoiler,
)


class TestParsing:
    def test_parse_value(self):
        assert _parse_value("3") == 3
        assert _parse_value("COMMIT") == "COMMIT"

    def test_parse_inputs(self):
        assert _parse_inputs("1,2,x") == [1, 2, "x"]
        assert _parse_inputs("1,,2") == [1, 2]

    def test_parse_fault_kinds(self):
        assert isinstance(_parse_fault("5:silent")[1], Silent)
        pid, crash = _parse_fault("2:crash:4")
        assert pid == 2 and isinstance(crash, Crash) and crash.budget == 4
        _, eq = _parse_fault("6:equivocate:1:2")
        assert isinstance(eq, Equivocate) and (eq.value_a, eq.value_b) == (1, 2)
        assert isinstance(_parse_fault("3:garbage")[1], Garbage)
        assert isinstance(_parse_fault("3:spoiler:2")[1], Spoiler)
        assert isinstance(_parse_fault("3:collapse:2")[1], Collapse)

    def test_parse_fault_errors(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("5")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("5:unknown")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("5:equivocate:1")


class TestCommands:
    def test_run_unanimous(self, capsys):
        code = main(["run", "-i", "1,1,1,1,1,1,1", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "one-step" in out
        assert "agreement=ok" in out

    def test_run_with_fault_and_algorithm(self, capsys):
        code = main([
            "run", "-a", "bosco-weak", "-i", "1,1,1,1,1,1",
            "-f", "5:silent", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bosco-weak" in out
        assert "decided=5/5 agreement=ok" in out  # the faulty pid is not counted

    def test_run_trace(self, capsys):
        for engine in ("sim", "mc"):  # the flag prints the event log on any engine
            code = main(
                ["run", "-i", "1,1,1,1,1,1,1", "--trace", "--seed", "1", "--engine", engine]
            )
            assert code == 0
            decide_lines = [
                line
                for line in capsys.readouterr().out.splitlines()
                if "DecideEvent" in line
            ]
            assert len(decide_lines) == 7, engine  # one per correct process
            assert all("value=1" in ln and "step=1" in ln for ln in decide_lines)

    def test_run_bad_algorithm(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "-a", "paxos", "-i", "1,1,1"])

    def test_run_configuration_error_exit_code(self, capsys):
        # 6 processes cannot host dex-freq with t = 1
        code = main(["run", "-i", "1,1,1,1,1,1", "--t", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_a_negative_crash_budget_is_a_configuration_error(self, capsys):
        assert main(["run", "-i", "1,1,1,1,1,1,1", "-f", "6:crash:-1"]) == 2
        assert "error: Crash.budget must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["--engine", "net", "--hubs", "0"], "--hubs must be at least 1, not 0"),
            (["--engine", "net", "--hubs", "-3"], "--hubs must be at least 1, not -3"),
            (["--hubs", "2"], "only the net engine has (got --engine sim)"),
        ],
        ids=["zero-hubs", "negative-hubs", "mesh-on-sim"],
    )
    def test_hubs_is_validated_not_ignored(self, capsys, argv, says):
        # Each of these used to run the star (or the simulator) and exit 0.
        assert main(["run", "-i", "1,2,1,2,1,2,1", "--seed", "7", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err and err.count("\n") == 1

    def test_run_help_lists_all_five_engines(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for engine in ENGINES:
            assert engine in out
        assert "asyncio" not in out  # the retired engine is gone

    def test_unknown_engine_is_a_one_line_error(self, capsys):
        code = main(["run", "-i", "1,1,1,1,1,1,1", "--engine", "bogus"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1  # one line, not a traceback
        assert "unknown engine 'bogus'" in err
        assert "sim" in err and "net" in err  # names the valid choices

    @pytest.mark.net
    def test_run_engine_net(self, capsys):
        code = main([
            "run", "-i", "1,1,1,1", "--engine", "net", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement=ok" in out

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_json_is_not_a_codec(self):
        # There is one codec, so no subcommand has an option naming one.
        import argparse

        (commands,) = (
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert {"run", "serve", "hub", "load"} <= set(commands.choices)
        for name, parser in commands.choices.items():
            flags = [flag for action in parser._actions for flag in action.option_strings]
            assert not [flag for flag in flags if "codec" in flag], name

    def test_table1_static(self, capsys):
        code = main(["table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dex-freq" in out
        assert "6t+1" in out

    def test_coverage(self, capsys):
        code = main(["coverage", "--n", "13", "--t", "2", "--q", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dex-freq 1-step" in out

    def test_legality_freq(self, capsys):
        code = main(["legality", "--pair", "freq", "--n", "7", "--t", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "legal=yes" in out

    def test_legality_prv(self, capsys):
        code = main(["legality", "--pair", "prv", "--n", "6", "--t", "1"])
        assert code == 0

    def test_conditions_explicit_input(self, capsys):
        code = main(["conditions", "-i", "1,1,1,1,1,1,1,1,1,1,1,1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap" in out

    def test_conditions_examples(self, capsys):
        code = main(["conditions", "--n", "13"])
        assert code == 0
        assert "unanimous" in capsys.readouterr().out


class TestRunMany:
    def test_runs_flag_aggregates(self, capsys):
        code = main(["run", "-i", "1,1,1,1,1,1,1", "--runs", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean slowest step" in out
        assert "95% CI" in out
        assert "decided=3/3 runs agreement=ok" in out

    def test_runs_with_real_uc(self, capsys):
        code = main([
            "run", "-i", "1,1,1,1,2,2,2", "--uc", "real", "--seed", "2",
        ])
        assert code == 0
        assert "agreement=ok" in capsys.readouterr().out

    def test_real_uc_on_net_is_refused_with_a_reason(self, capsys):
        code = main([
            "run", "-i", "1,1,1,1,1,1,1", "--uc", "real", "--engine", "net",
        ])
        assert code == 2
        assert "no wire records" in capsys.readouterr().err


class TestUndecidedRunFails:
    """Agreement is vacuous on zero decisions: a run in which a correct
    process never decided must not report success."""

    @pytest.fixture
    def never_decides(self, monkeypatch):
        real_run = Scenario.run

        def run(self):
            result = real_run(self)
            result.decisions.clear()
            return result

        monkeypatch.setattr(Scenario, "run", run)

    def test_single_run_exits_nonzero_and_says_how_many_decided(
        self, capsys, never_decides
    ):
        code = main(["run", "-i", "1,1,1,1,1,1,1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "decided=0/7" in out
        assert "agreement=ok" in out  # vacuously — hence the exit code

    def test_runs_path_follows_the_same_rule(self, capsys, never_decides):
        code = main(["run", "-i", "1,1,1,1,1,1,1", "--runs", "3"])
        assert code == 1
        assert "decided=0/3 runs" in capsys.readouterr().out
