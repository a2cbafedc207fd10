"""Pipeline orchestration, file emission, sweeps, and the CLI."""
import json
import math
import os

import pytest

import sourcescope as ss
from sourcescope import bench
from sourcescope.bench import (SweepResult, emit_outputs, resolve_threads,
                               run_scenario, run_sweep)
from sourcescope.cli import main
from sourcescope.errors import InputError


def small_scenario(**kw):
    return ss.build_scenario(ss.random_scenario(1, **kw))


class TestRunScenario:
    def test_both_algorithms(self, bench_run):
        assert sorted(bench_run.results) == ["1", "2"]
        assert bench_run.records
        assert bench_run.all_satisfied
        for run in bench_run.results.values():
            assert len(run.events) == 3
            assert len(run.timing_errors) == 3
            assert all(e <= 0.01 + 1e-12 for e in run.timing_errors)
            assert all(not math.isnan(e) for e in run.rho_rel_errors)
            assert 0.0 < run.rel_coeff_err_g2 < 0.2
            assert run.cert_pass_rate == 1.0

    def test_single_algorithm_and_seed_override(self):
        scn = small_scenario(catalyst_free=True)
        out = run_scenario(scn, algorithm="1", seed=123)
        assert sorted(out.results) == ["1"]
        assert out.seed == 123
        assert out.events == []

    def test_deterministic_given_seed(self):
        scn = small_scenario()
        a = run_scenario(scn, algorithm="2")
        b = run_scenario(scn, algorithm="2")
        assert [(r.family, r.index, r.value) for r in a.records] \
            == [(r.family, r.index, r.value) for r in b.records]
        assert [(ev.t_hat, ev.coeffs) for ev in a.events] \
            == [(ev.t_hat, ev.coeffs) for ev in b.events]


class TestEmitOutputs:
    def test_run_files(self, bench_run, tmp_path):
        paths = emit_outputs(bench_run, str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["events_alg1.csv", "events_alg2.csv",
                         "fig_recovery_alg1.svg", "fig_recovery_alg2.svg",
                         "measurements.csv"]
        meas = (tmp_path / "measurements.csv").read_text().splitlines()
        assert meas[0] == "family,index,sensor_id,re,im,noise_re,noise_im"
        e1 = (tmp_path / "events_alg1.csv").read_text().splitlines()
        assert e1[0] == ("j,t_hat,rho_hat,sensor_id,f_j,case_tag,"
                         "bound_coeff,bound_rho")
        e2 = (tmp_path / "events_alg2.csv").read_text().splitlines()
        assert e2[0] == ("j,t_hat,rho_hat,sensor_id,f_j,case_tag,"
                         "bound_coeff,bound_rho,im_residual,M_g")
        # certificate section appended after a blank line
        blank = e1.index("")
        assert e1[blank + 1] == "kind,rhs,observed,satisfied"
        assert all(line.endswith(("true", "false"))
                   for line in e1[blank + 2:])
        # 3 events x 3 sensors per algorithm
        assert blank - 1 == 9
        svg = (tmp_path / "fig_recovery_alg1.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_rejects_unknown_payload(self, tmp_path):
        with pytest.raises(InputError):
            emit_outputs([object()], str(tmp_path))

    def test_sweep_files(self, tmp_path):
        res = SweepResult(
            axis="sigma", values=[1e-3, 1e-2],
            rows=[{"axis": "sigma", "value": v, "seed": s,
                   "rel_coeff_err_g2": err, "rho1_rel": 0.0,
                   "rho2_rel": math.nan, "rho3_rel": math.nan,
                   "t1_err": 0.0, "t2_err": math.nan, "t3_err": math.nan,
                   "cert_pass_rate": 1.0}
                  for v, s, err in ((1e-3, 1, 0.1), (1e-3, 2, 0.3),
                                    (1e-2, 1, 0.2), (1e-2, 2, math.nan))])
        paths = emit_outputs(res, str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["fig_sweep_sigma.svg", "sweep_sigma.csv",
                         "sweep_sigma_summary.csv"]
        rows = (tmp_path / "sweep_sigma.csv").read_text().splitlines()
        assert rows[0] == ("axis,value,seed,rel_coeff_err_g2,rho1_rel,"
                           "rho2_rel,rho3_rel,t1_err,t2_err,t3_err,"
                           "cert_pass_rate")
        assert rows[1].startswith("sigma,0.001,1,0.1,")
        assert len(rows) == 5
        summary = (tmp_path / "sweep_sigma_summary.csv").read_text()
        assert summary.splitlines()[1].startswith("0.001,0.2")


class TestSweeps:
    def test_medians_skip_nan(self):
        res = SweepResult(
            axis="L", values=[0.1, 0.2],
            rows=[{"value": 0.1, "rel_coeff_err_g2": 1.0},
                  {"value": 0.1, "rel_coeff_err_g2": 3.0},
                  {"value": 0.2, "rel_coeff_err_g2": math.nan}])
        assert res.medians() == [(0.1, 2.0), (0.2, pytest.approx(math.nan,
                                                                 nan_ok=True))]

    def test_bad_axis(self):
        with pytest.raises(InputError, match="axis"):
            run_sweep(small_scenario(), "gamma", [1.0])

    def test_sweep_rows_and_failures(self):
        """An invalid point is recorded as a nan row; the sweep continues."""
        scn = small_scenario(n_catalysts=1)
        res = run_sweep(scn, "beta", [0.01, 2.0], reps=2, threads=1)
        assert res.values == [0.01, 2.0]
        assert len(res.rows) == 4
        good = [r for r in res.rows if r["value"] == 0.01]
        bad = [r for r in res.rows if r["value"] == 2.0]
        assert all(not math.isnan(r["rel_coeff_err_g2"]) for r in good)
        assert all(r["cert_pass_rate"] == 1.0 for r in good)
        assert all(math.isnan(r["rel_coeff_err_g2"]) for r in bad)
        assert all(r["cert_pass_rate"] == 0.0 for r in bad)
        assert len(res.failures) == 2
        assert all("beta=2.0" in f for f in res.failures)
        # distinct seeds per rep, derived from the scenario seed
        assert sorted({r["seed"] for r in good}) \
            == [scn.cfg.seed, scn.cfg.seed + 1009]

    def test_thread_count_invariance(self):
        scn = small_scenario(n_catalysts=1)
        r1 = run_sweep(scn, "sigma", [1e-3, 1e-2], reps=2, threads=1)
        r4 = run_sweep(scn, "sigma", [1e-3, 1e-2], reps=2, threads=4)
        assert r1.rows == r4.rows


class TestResolveThreads:
    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv(bench.THREADS_ENV, "3")
        assert resolve_threads(7) == 3
        monkeypatch.delenv(bench.THREADS_ENV)
        assert resolve_threads(7) == 7
        assert resolve_threads() >= 1

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_env_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv(bench.THREADS_ENV, value)
        with pytest.raises(InputError, match=bench.THREADS_ENV):
            resolve_threads(2)


class TestCli:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "small.scenario"
        path.write_text(json.dumps(ss.random_scenario(1, catalyst_free=True))
                        + "\n")
        return str(path)

    def test_success(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(out), "--seed", "5"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "measurements.csv") in printed
        assert (out / "events_alg1.csv").exists()
        assert (out / "events_alg2.csv").exists()

    def test_validation_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{not json")
        code = main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sweep_axis_exit_2(self, scenario_file, tmp_path, capsys):
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(tmp_path / "o"), "--sweep",
                     "gamma=1,2"])
        assert code == 2

    def test_bad_threads_env_exit_2(self, scenario_file, tmp_path,
                                    monkeypatch, capsys):
        monkeypatch.setenv(bench.THREADS_ENV, "abc")
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(tmp_path / "o"), "--sweep", "sigma=1e-3",
                     "--reps", "1"])
        assert code == 2
        assert "error: %s" % bench.THREADS_ENV in capsys.readouterr().err

    def test_overflowing_generator_exit_2(self, tmp_path, capsys):
        path = tmp_path / "hot.scenario"
        path.write_text(json.dumps(ss.paper_scenario(
            generator={"kind": "const", "c": 200.0})))
        code = main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "max(a) * horizon = 1000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_certificate_violation_exit_3(self, scenario_file, tmp_path,
                                          monkeypatch, capsys):
        real = bench.run_scenario

        def sabotaged(*args, **kwargs):
            out = real(*args, **kwargs)
            next(iter(out.results.values())).unmatched.append("bogus")
            return out

        monkeypatch.setattr(bench, "run_scenario", sabotaged)
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "certificate violation" in capsys.readouterr().err

    def test_cli_sweep_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(out), "--sweep", "sigma=0.001,0.01",
                     "--reps", "2", "--threads", "2", "--algorithm", "2"])
        assert code == 0
        assert (out / "sweep_sigma.csv").exists()
        assert (out / "sweep_sigma_summary.csv").exists()
        assert (out / "fig_sweep_sigma.svg").exists()
