"""The experiment drivers and the ``python -m repro.experiments`` CLI.

These run reduced versions of the full sweeps (the benchmark suite does
the heavy ones); here we check the drivers' plumbing, rendering, and
pass/fail logic.
"""

import numpy as np
import pytest

from repro.experiments.figures import reproduce_figures, run_figure4_example
from repro.experiments.table1 import (
    Table1Result,
    measure_convolution,
    measure_sum,
)
from repro.experiments.table2 import reproduce_table2


class TestMeasureHelpers:
    Q = dict(n=256, k=8, p=32, w=8, l=4, d=2)

    @pytest.mark.parametrize(
        "model", ["sequential", "pram", "dmm", "umm", "hmm"]
    )
    def test_measure_sum_positive(self, model, rng):
        vals = rng.normal(size=self.Q["n"])
        assert measure_sum(model, self.Q, vals) > 0

    @pytest.mark.parametrize(
        "model", ["sequential", "pram", "dmm", "umm", "hmm"]
    )
    def test_measure_conv_positive(self, model, rng):
        x = rng.normal(size=self.Q["k"])
        y = rng.normal(size=self.Q["n"] + self.Q["k"] - 1)
        assert measure_convolution(model, self.Q, x, y) > 0

    def test_unknown_model(self, rng):
        with pytest.raises(ValueError):
            measure_sum("tpu", self.Q, rng.normal(size=16))


class TestFigures:
    def test_figure4_is_eight(self):
        cycles, chart = run_figure4_example()
        assert cycles == 8
        assert "W(0)" in chart

    def test_reproduce_figures_renders(self):
        result = reproduce_figures()
        text = result.render()
        assert result.fig4_cycles == 8
        for token in ("Figure 3", "Figure 4", "Figure 5", "GTX580"):
            assert token in text


class TestCLI:
    def test_figures_subcommand(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["figures", "-o", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert (tmp_path / "figures.txt").exists()

    def test_bad_subcommand(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_figures_advise_writes_verdicts(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        from repro.experiments.figures import FIG4_LATENCY_GRID

        code = main(["figures", "-o", str(tmp_path), "--advise",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Kernel advisor verdicts" in out
        advise = (tmp_path / "advise.txt").read_text()
        # One verdict line per Figure 4 launch, each with a regime.
        for q in FIG4_LATENCY_GRID:
            assert f"fig4 l={q['l']}" in advise
        assert "-bound" in advise

    def test_advise_without_advisable_launches(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--advise", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "no advisable launches" in out


class TestTable1ResultLogic:
    def test_all_shapes_hold_thresholds(self):
        from repro.analysis.fitting import FitResult

        good = FitResult(("n",), (1.0,), 0.999, 0.05)
        bad_r2 = FitResult(("n",), (1.0,), 0.5, 0.05)
        bad_coef = FitResult(("n",), (99.0,), 0.999, 0.05)
        base = dict(
            sum_points=[], conv_points=[],
            sum_measured={}, conv_measured={},
        )
        assert Table1Result(
            sum_fits={"m": good}, conv_fits={"m": good}, **base
        ).all_shapes_hold()
        assert not Table1Result(
            sum_fits={"m": bad_r2}, conv_fits={"m": good}, **base
        ).all_shapes_hold()
        assert not Table1Result(
            sum_fits={"m": good}, conv_fits={"m": bad_coef}, **base
        ).all_shapes_hold()


class TestAblationsDriver:
    def test_reproduce_ablations(self):
        from repro.experiments.ablations import reproduce_ablations

        result = reproduce_ablations()
        assert result.mechanisms_all_matter()
        text = result.render()
        for token in ("pipelining", "slot policies", "padding"):
            assert token in text

    def test_cli_ablations_subcommand(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["ablations", "-o", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ablations.txt").exists()
        assert "PASS" in capsys.readouterr().out


class TestJSONExport:
    def test_json_requires_out(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figures", "--json"])

    def test_figures_json(self, capsys, tmp_path):
        import json

        from repro.experiments.__main__ import main

        code = main(["figures", "-o", str(tmp_path), "--json"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["figure4_cycles"] == 8
        assert summary["seed"] == 20130520


class TestCLISweepFlags:
    """The executor-facing CLI surface: --jobs/--mode/--no-cache/
    --cache-stats, and the documented summary.json schema."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_STORE_SWEEP_DIR", str(tmp_path / "sweep_cache")
        )

    def test_table2_json_smoke_schema(self, capsys, tmp_path):
        """``table2 -o DIR --json`` exits 0 and writes the documented
        summary.json: the seed, per-model soundness/worst-ratio, and the
        top-level pass flag."""
        import json

        from repro.experiments.__main__ import main

        code = main(["table2", "-o", str(tmp_path), "--json"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 20130520
        assert summary["pass"] is True
        for problem in ("sum", "convolution"):
            for model in ("pram", "dmm", "umm", "hmm"):
                rep = summary["table2"][problem][model]
                assert rep["sound"] is True
                assert isinstance(rep["worst_ratio"], float)

    def test_figures_parallel_jobs(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["figures", "--jobs", "2", "-o", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_figures_jobs_auto_and_mode_event(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figures", "--jobs", "auto", "--mode", "event"]) == 0

    def test_figures_no_cache(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["figures", "--no-cache"])
        assert code == 0
        assert not (tmp_path / "sweep_cache").exists()

    def test_cache_stats_standalone(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--cache-stats"]) == 0
        assert "sweep cache:" in capsys.readouterr().out

    def test_cache_warm_rerun_identical_artifacts(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        assert main(["figures", "-o", str(cold_dir)]) == 0
        assert main(["figures", "-o", str(warm_dir)]) == 0
        capsys.readouterr()
        assert (
            (cold_dir / "figures.txt").read_text()
            == (warm_dir / "figures.txt").read_text()
        )

    def test_bad_jobs_value_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figures", "--jobs", "soon"])

    def test_no_subcommand_without_cache_stats_errors(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestFullDrivers:
    """The complete Table I / Table II sweeps (the same runs the CLI and
    the benchmarks make) — slowish but the core reproduction criteria."""

    def test_reproduce_table1_holds(self):
        from repro.experiments.table1 import reproduce_table1

        result = reproduce_table1()
        assert result.all_shapes_hold(), result.render()
        # The HMM sum's nl/p coefficient is the cleanest signal: ~1.
        fit = result.sum_fits["hmm"]
        assert 0.7 <= fit.coefficient_for("nl/p") <= 1.5

    def test_reproduce_table2_holds(self):
        from repro.experiments.table2 import reproduce_table2

        result = reproduce_table2()
        assert result.all_sound_and_tight(), result.render()
        # The PRAM sum is essentially at its bound.
        assert result.sum_reports["pram"].worst_ratio < 2.0
