import re
from unittest import mock

import numpy as np
import pytest
from pathlib import Path

from codedflow import EngineSpec, estimator, flowmodel, scenarios
from codedflow.cli import _compact, main, parse_config, run
from codedflow.infogradients import verify_gradients
from codedflow.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
FIGURE1 = REPO / "configs" / "figure1.cfg"
MC_FLAGS = {"method": "mc", "samples": "20000", "workers": "2", "tolerance": "5e-2"}

SCALAR_CHAIN = """
[topology]
vertices = a b
outputs = 1
edge e1 = a b
sources = a
sinks = b

[coefficients]
mode = explicit
alpha 1 e1 = 1.0
gamma 1 e1 = 0.9

[input]
kind = bpsk
dimension = 1

[engine]
method = quadrature
nodes = 32
seed = 7

[run]
tolerance = 1e-3
units = nats
"""

# fan-in relay s -> {a, b} -> c -> t: the compact G is 1 x 2, not square
FAN_IN = """
[topology]
vertices = s a b c t
outputs = 1
edge e1 = s a
edge e2 = s b
edge e3 = a c
edge e4 = b c
edge e5 = c t
sources = s
sinks = t

[coefficients]
mode = seeded
seed = 11

[input]
kind = qpsk
dimension = 2

[engine]
method = quadrature
nodes = 16
"""


class TestParsing:
    def test_figure1_parses_to_diamond(self):
        config = parse_config(FIGURE1.read_text())
        assert config.topology.edge_names == ("e1", "e2", "e3", "e4", "e5")
        assert config.topology.edges[2] == ("v2", "v3")
        assert config.topology.sources == ("v1",)
        assert config.topology.sinks == ("v4",)
        assert config.dist.kind == "discrete" and config.dist.support.shape == (16, 2)
        assert config.engine.method == "quadrature"
        assert config.engine.seed == 42
        assert config.n_out == 2

    def test_empty_file_is_a_parse_error(self):
        with pytest.raises(ConfigError):
            parse_config("")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section.*line 1"):
            parse_config("[wat]\n")

    def test_unknown_key_names_line(self):
        text = "[engine]\nmethod = quadrature\nturbo = on\n"
        with pytest.raises(ConfigError, match=r"turbo.*line 3"):
            parse_config(text)

    def test_unknown_edge_reference_is_named(self):
        text = SCALAR_CHAIN.replace("gamma 1 e1 = 0.9", "gamma 1 e9 = 0.9")
        with pytest.raises(ConfigError, match="e9"):
            parse_config(text)

    def test_unknown_vertex_in_edge(self):
        text = SCALAR_CHAIN.replace("edge e1 = a b", "edge e1 = a zz")
        with pytest.raises(ConfigError, match="zz"):
            parse_config(text)

    def test_duplicate_scalar_key(self):
        text = SCALAR_CHAIN.replace("seed = 7", "seed = 7\nseed = 8")
        with pytest.raises(ConfigError, match="more than once"):
            parse_config(text)

    def test_bad_number(self):
        text = SCALAR_CHAIN.replace("alpha 1 e1 = 1.0", "alpha 1 e1 = one")
        with pytest.raises(ConfigError, match=r"alpha must be a number, not 'one' \(line \d+\)"):
            parse_config(text)

    def test_too_many_numbers(self):
        text = SCALAR_CHAIN.replace("alpha 1 e1 = 1.0", "alpha 1 e1 = 1.0 2.0 3.0")
        with pytest.raises(ConfigError, match=r"alpha must be one or two numbers, not '1.0 2.0 3.0' \(line \d+\)"):
            parse_config(text)

    def test_entry_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("vertices = a b\n")

    def test_units_validated(self):
        text = SCALAR_CHAIN.replace("units = nats", "units = furlongs")
        with pytest.raises(ConfigError, match="units"):
            parse_config(text)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[input\]"):
            parse_config("[topology]\nvertices = a\noutputs = 1\nedge e1 = a a\nsources = a\nsinks = a\n")

    @pytest.mark.parametrize("old, new", [("outputs = 1", "outputs = 0"), ("dimension = 1", "dimension = 0")])
    def test_stream_counts_must_be_positive(self, old, new):
        with pytest.raises(ConfigError, match=rf"{new.split()[0]} must be at least 1, not 0 \(line \d+\)"):
            parse_config(SCALAR_CHAIN.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("units = nats", "units nats", "expected 'key = value' (line 25, column 10)"),
            ("units = nats", "= nats", "missing key (line 25)"),
            ("units = nats", "units extra = nats", "key 'units' takes no arguments (line 25)"),
            ("sources = a\n", "", "missing required key 'sources' in section [topology]"),
            ("edge e1 = a b\n", "", "topology needs at least one edge line"),
            ("edge e1 = a b", "edge e1 = a", "edge lines read 'edge NAME = TAIL HEAD' (line 5)"),
            ("edge e1 = a b", "edge e1 = a b\nedge e1 = a b", "duplicate edge names"),
            ("alpha 1 e1 = 1.0", "alpha e1 = 1.0", "alpha lines read 'alpha <index> <edge> = value' (line 11)"),
            ("gamma 1 e1 = 0.9", "gamma 1 = 0.9", "gamma lines read 'gamma <index> <edge> = value' (line 12)"),
            ("gamma 1 e1 = 0.9", "gamma 1 e1 = 0.9\nbeta e1 = 0.5", "beta lines read 'beta <edge> <edge> = value' (line 13)"),
        ],
        ids=[
            "no-equals", "no-key", "scalar-key-arguments", "missing-required-key", "no-edge-lines",
            "malformed-edge-line", "duplicate-edge-names", "malformed-alpha", "malformed-gamma", "malformed-beta",
        ],
    )
    def test_a_malformed_config_is_refused_with_its_message(self, old, new, message):
        assert old in SCALAR_CHAIN
        with pytest.raises(ConfigError) as caught:
            parse_config(SCALAR_CHAIN.replace(old, new))
        assert str(caught.value) == message

    def test_empty_engine_section_is_the_default_spec(self):
        # a contract: every engine key left out of the config takes EngineSpec's own default
        text = SCALAR_CHAIN.replace("method = quadrature\nnodes = 32\nseed = 7\n", "")
        assert "[engine]\n\n[run]" in text
        assert parse_config(text).engine == EngineSpec()

    def test_overrides_take_precedence(self):
        config = parse_config(SCALAR_CHAIN, overrides={"seed": 99, "nodes": 16})
        assert config.engine.seed == 99
        assert config.engine.nodes == 16

    def test_seed_flag_leaves_coefficient_seed_alone(self):
        text = FIGURE1.read_text()
        assert parse_config(text, {"seed": 1}).coefficients == parse_config(text).coefficients

    def test_seeded_coefficients_are_deterministic(self):
        text = FIGURE1.read_text()
        a = parse_config(text)
        b = parse_config(text)
        assert a.coefficients.alpha == b.coefficients.alpha
        assert a.coefficients.beta == b.coefficients.beta


class TestCommands:
    def test_verify_scalar_chain_passes(self, tmp_path):
        config = parse_config(SCALAR_CHAIN)
        report = run(config, "verify", tmp_path)
        assert report.passed
        csv = (tmp_path / "verify.csv").read_text()
        assert csv.splitlines()[0] == (
            "suite,check_id,target,entry_row,entry_col,closed_form_re,closed_form_im,"
            "oracle_re,oracle_im,abs_err,rel_err,pass"
        )
        assert "RESULT: PASS" in (tmp_path / "verify_report.txt").read_text()

    def test_an_unknown_command_is_refused_before_any_output(self, tmp_path):
        with pytest.raises(ValueError) as caught:
            run(parse_config(SCALAR_CHAIN), "bogus", tmp_path / "out")
        assert str(caught.value) == "unknown command 'bogus'"
        assert not (tmp_path / "out").exists()

    def test_verify_is_deterministic_across_runs_and_workers(self, tmp_path):
        first = run(parse_config(SCALAR_CHAIN), "verify", tmp_path / "a")
        second = run(parse_config(SCALAR_CHAIN), "verify", tmp_path / "b")
        eight = run(
            parse_config(SCALAR_CHAIN, overrides={"workers": 8}), "verify", tmp_path / "c"
        )
        body = (tmp_path / "a" / "verify.csv").read_bytes()
        assert body == (tmp_path / "b" / "verify.csv").read_bytes()
        assert body == (tmp_path / "c" / "verify.csv").read_bytes()
        assert first.passed and second.passed and eight.passed

    def test_monte_carlo_verify_is_identical_across_workers(self, tmp_path):
        # 20000 samples span several sampler chunks and mixture-kernel chunks
        bodies = []
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            argv = ["verify", "--config", str(FIGURE1), "--method", "mc", "--samples", "20000"]
            main(argv + ["--workers", str(workers), "--tolerance", "5e-2", "--out", str(out)])
            bodies.append((out / "verify.csv").read_bytes())
        assert len(bodies[0].splitlines()) == 13
        assert bodies[0] == bodies[1] == bodies[2]

    def test_monte_carlo_verify_draws_once(self, tmp_path, monkeypatch):
        # the error matrix, the three oracles and the report's information share one draw
        calls, real = [], flowmodel.draw_inputs_and_noise

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flowmodel, "draw_inputs_and_noise", counted)
        argv = ["verify", "--config", str(FIGURE1), "--method", "mc", "--samples", "20000"]
        assert main(argv + ["--workers", "2", "--tolerance", "5e-2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_monte_carlo_verify_computes_the_noise_density_once(self, tmp_path, monkeypatch):
        # the kept draw holds log p(z|x)'s batch sums: the error matrix, the oracles and the report never redo them
        calls, real = [], flowmodel._log_noise_sums

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flowmodel, "_log_noise_sums", counted)
        argv = ["verify", "--config", str(FIGURE1), "--method", "mc", "--samples", "20000"]
        assert main(argv + ["--workers", "2", "--tolerance", "5e-2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, workers, passes, calls", [("verify", 1, 43, 62), ("verify", 2, 43, 62), ("optimize-precoder", 1, 21, 42)]
    )
    def test_figure1_computes_each_quadrature_pass_once(self, tmp_path, command, workers, passes, calls):
        # verify: the minus side of each of the 12 imaginary-direction slopes is the conjugate of its
        # plus side, the 6 coarse refinement passes repeat oracle slopes, and the report's information
        # is the error matrix's pass; optimize-precoder: each candidate's information is its MMSE pass
        with (
            mock.patch.object(estimator, "quadrature_moments", wraps=estimator.quadrature_moments) as called,
            mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass) as computed,
        ):
            argv = [command, "--config", str(FIGURE1), "--nodes", "16", "--workers", str(workers)]
            assert main(argv + ["--out", str(tmp_path)]) == 0
        assert (computed.call_count, called.call_count) == (passes, calls)
        if command == "verify":  # a real channel's imaginary-direction slopes are exactly 0
            rows = (tmp_path / "verify.csv").read_text().splitlines()[1:]
            assert len(rows) == 12 and all(row.split(",")[-4] == "0" for row in rows)

    @pytest.mark.parametrize("overrides, kept", [({}, {"passes"}), (MC_FLAGS, {"passes", "draw"})], ids=["quadrature", "mc"])
    def test_figure1_law_keeps_only_work_for_channels(self, tmp_path, overrides, kept):
        # the law's structure, its halves too, is worked out when it is built, not kept in its store;
        # the halves' passes run inside the law's and are not kept
        config = parse_config(FIGURE1.read_text(), overrides)
        assert run(config, "verify", tmp_path).passed
        assert set(config.dist._kept) == kept
        assert [(half._kept, k) for half, k in config.dist.halves] == [({}, 2)]

    def test_reports_show_the_step_halving_change(self, tmp_path):
        config = parse_config(SCALAR_CHAIN)
        sys_c = _compact(config)
        verify_text = run(config, "verify", tmp_path).render_text()
        cuts_text = run(config, "cuts", tmp_path).render_text()
        for objective, text, label in (
            ("full", verify_text, "grad {}: max rel"),
            ("source", cuts_text, "source.{}:"),
            ("mid", cuts_text, "mid.{}:"),
        ):
            dist = parse_config(SCALAR_CHAIN).dist  # a second law computes what the runs' law kept
            result = verify_gradients(sys_c, dist, config.engine, step=config.step, objective=objective)
            for target, change in result.refinement.items():
                line = rf"^{re.escape(label.format(target))}.* step-halving change {change:.2e} nats$"
                assert re.search(line, text, re.M)

    def test_gradients_with_deterministic_input_is_all_zero(self, tmp_path):
        text = SCALAR_CHAIN.replace("kind = bpsk", "kind = point")
        report = run(parse_config(text), "gradients", tmp_path)
        assert report.passed
        for row in report.rows:
            assert row.closed == 0

    def test_cuts_scalar_chain(self, tmp_path):
        report = run(parse_config(SCALAR_CHAIN), "cuts", tmp_path)
        assert report.passed
        assert (tmp_path / "cuts.csv").exists()

    def test_example1_diamond(self, tmp_path):
        config = parse_config(FIGURE1.read_text())
        report = run(config, "example1", tmp_path)
        assert report.passed
        assert any("erratum" in note for note in report.notes)

    def test_example1_reduction_row_fails_on_a_corrupted_variant(self, tmp_path, monkeypatch):
        # the hand-written no-e3 symbol set made wrong (gamma_e5_1 is not on edge
        # e3), with the stored variant built from it, so the two still agree
        removed = frozenset({"beta_e1_e3", "beta_e3_e5", "gamma_e5_1"})
        wrong = scenarios.Grad11Expansion(scenarios.reduce_terms(scenarios.TERMS_FULL_PRINTED, removed))
        monkeypatch.setitem(scenarios._REMOVED_BY_VARIANT, "no-e3", removed)
        monkeypatch.setitem(scenarios.EXPANSIONS, "no-e3", wrong)
        report = run(parse_config(FIGURE1.read_text()), "example1", tmp_path)
        verdicts = {row.check_id: row.passed for row in report.rows}
        assert verdicts["reduction.no-e3"] is False
        assert verdicts["reduction.no-e2e5"] is True
        assert not report.passed

    def test_example1_needs_diamond_topology(self, tmp_path):
        report = run(parse_config(SCALAR_CHAIN), "example1", tmp_path)
        assert not report.passed
        assert report.error is not None
        assert "RESULT: FAIL" in (tmp_path / "example1_report.txt").read_text()

    def test_optimize_precoder_figure1_starts_at_exactly_zero_information(self, tmp_path):
        # the ascent starts from B = 0, a zero channel
        text = FIGURE1.read_text().replace("ascent_iterations = 20", "ascent_iterations = 1")
        report = run(parse_config(text), "optimize-precoder", tmp_path)
        assert report.rows[0].check_id == "iter000"
        assert report.rows[0].closed == 0.0
        assert report.rows[1].closed.real > 0.0

    def test_optimize_precoder_gaussian(self, tmp_path):
        text = SCALAR_CHAIN.replace("kind = bpsk", "kind = gaussian")
        report = run(parse_config(text), "optimize-precoder", tmp_path)
        assert report.passed
        assert (tmp_path / "optimize_precoder.csv").exists()


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_exit_one_on_tolerance_failure(self, tmp_path, capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        code = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--tolerance",
                "1e-15",
            ]
        )
        assert code == 1

    def test_exit_two_on_missing_config(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[nope]\n")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--nodes", "0"),
            ("--samples", "0"),
            ("--workers", "0"),
            ("--tolerance", "-0.001"),
            ("--nodes", "abc"),
            ("--method", "xx"),
            ("--units", "x"),
        ],
    )
    def test_exit_two_on_invalid_override(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])
        assert code == 2
        assert f"{flag[2:]} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_invalid_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN.replace("nodes = 32", "nodes = 0"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "nodes must be at least 1, not 0 (line 20)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed = 7", "samples = 0"),
            ("seed = 7", "workers = 0"),
            ("method = quadrature", "method = mcmc"),
            ("kind = bpsk", "kind = qam"),
            ("mode = explicit", "mode = random"),
            ("units = nats", "units = furlongs"),
            ("sources = a", "sources = zz"),
            ("sinks = b", "sinks = b zz"),
            ("alpha 1 e1 = 1.0", "alpha 1 e1 = inf"),
            ("alpha 1 e1 = 1.0", "alpha 1 e1 = nan"),
            ("alpha 1 e1 = 1.0", "alpha 1 e1 = 1e400"),
        ],
    )
    def test_exit_two_names_key_and_line_of_invalid_setting(self, tmp_path, capsys, old, new):
        text = SCALAR_CHAIN.replace(old, new)
        line = text.splitlines().index(new) + 1
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        key = new.split()[0]
        assert re.search(rf"{key} must .* \(line {line}\)", capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["verify", "cuts", "gradients", "optimize-precoder"])
    @pytest.mark.parametrize("old, new", [("sources = a", "sources = c"), ("sinks = b", "sinks = c")])
    def test_exit_two_on_terminal_without_edge(self, tmp_path, capsys, command, old, new):
        # c has no edge: nothing leaves the source, or nothing enters the sink
        text = SCALAR_CHAIN.replace("vertices = a b", "vertices = a b c").replace(old, new)
        line = text.splitlines().index(new) + 1
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(rf"{new.split()[0]} must have an edge (leaving|entering) them \(line {line}\)", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, command, message",
        [
            ("step = 0", "verify", r"step must lie in \[1e-05, 0.01\], not 0.0 \(line 25\)"),
            ("tolerance = abc", "verify", r"tolerance must be a number, not 'abc' \(line 25\)"),
            ("budget = -1", "optimize-precoder", r"budget must be positive and finite, not -1.0 \(line 25\)"),
            ("ascent_step = -0.5", "optimize-precoder", r"ascent_step must be nonnegative.*line 25"),
            ("ascent_iterations = 2.5", "optimize-precoder", r"ascent_iterations must be an integer.*line 25"),
        ],
    )
    def test_exit_two_on_invalid_run_number(self, tmp_path, capsys, entry, command, message):
        text = SCALAR_CHAIN.replace("tolerance = 1e-3\n", "").replace("units = nats", f"units = nats\n{entry}")
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(text)  # the entry is line 25
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, command, message",
        [
            ("high = 1.0", "high = nan", "verify", r"high must be finite and at least low = 0.3, not nan \(line 24\)"),
            ("low = 0.3", "low = inf", "verify", r"low must be finite, not inf \(line 23\)"),
            ("low = 0.3", "low = 5.0", "verify", r"high must be finite and at least low = 5.0, not 1.0 \(line 24\)"),
            (
                "ascent_iterations = 20",
                "ascent_step = inf",
                "optimize-precoder",
                r"ascent_step must be nonnegative and finite, not inf \(line 40\)",
            ),
        ],
    )
    def test_exit_two_on_unbounded_figure1_value(self, tmp_path, capsys, old, new, command, message):
        cfg = tmp_path / "figure1.cfg"
        cfg.write_text(FIGURE1.read_text().replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_cuts_on_a_non_square_topology_runs_its_reductions(self, tmp_path, capsys):
        cfg = tmp_path / "fan_in.cfg"
        cfg.write_text(FAN_IN)
        out = tmp_path / "out"
        assert main(["cuts", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        assert (out / "cuts_report.txt").exists()
        lines = (out / "cuts.csv").read_text().splitlines()
        for reduction in ("mid_vs_source", "full_vs_source"):
            rows = [line for line in lines if line.startswith(f"cuts,reduction.{reduction}[")]
            assert rows and all(line.endswith(",true") for line in rows), reduction

    def test_oversized_monte_carlo_draw_leaves_fail_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = ["--method", "mc", "--samples", "1000000000000"]
        assert main(["verify", "--config", str(FIGURE1), "--out", str(out), *flags]) == 2
        text = (out / "verify_report.txt").read_text()
        assert re.search(r"error: 1000000000000 Monte Carlo samples need .* over the 1 GiB cost guard", text)
        assert "RESULT: FAIL" in text

    def test_negative_seed_flag_runs_example1(self, tmp_path):
        out = tmp_path / "out"
        assert main(["example1", "--config", str(FIGURE1), "--seed", "-1", "--out", str(out)]) == 0
        assert "RESULT: PASS" in (out / "example1_report.txt").read_text()

    def test_zero_tolerance_override_is_applied(self, tmp_path):
        config = parse_config(SCALAR_CHAIN, overrides={"tolerance": 0.0})
        assert config.tolerance == 0.0

    def test_invariant_breach_leaves_fail_report(self, tmp_path, monkeypatch, capsys):
        from codedflow import estimator

        exact = estimator.quadrature_moments

        def breach(*args, **kwargs):
            mi, err, nodes = exact(*args, **kwargs)
            # an error matrix above the input covariance breaks dominance
            return mi, None if err is None else err + 10.0 * np.eye(len(err)), nodes

        monkeypatch.setattr(estimator, "quadrature_moments", breach)
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        text = (out / "verify_report.txt").read_text()
        assert "error: error matrix exceeds the input covariance" in text
        assert "RESULT: FAIL" in text

    def test_overflowing_hermite_rule_leaves_fail_report(self, tmp_path, capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--nodes", "372"]) == 2
        text = (out / "verify_report.txt").read_text()
        assert "error: the 372-node Hermite rule has non-finite or vanishing weights" in text
        assert "RESULT: FAIL" in text

    def test_unit_override_changes_report_only(self, tmp_path):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(SCALAR_CHAIN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gradients", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert (
            main(["gradients", "--config", str(cfg), "--out", str(out_b), "--units", "bits"])
            == 0
        )
        assert (out_a / "gradients.csv").read_bytes() == (out_b / "gradients.csv").read_bytes()
        assert "bits" in (out_b / "gradients_report.txt").read_text()
