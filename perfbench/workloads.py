"""The benchmark's workloads: fixed inputs, the timed unit, output checks.

A workload's `inputs(seed)` draws an endless sequence of unit inputs from
the workload seed.  `run` is the unit of work the benchmark times.  `check` runs after
the timer stops and reports what the unit's outputs show: how many
certified pipeline runs it made, which of them failed, and each run's
mean relative decay-rate error over its matched events.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from sourcescope import bench, bounds, cli, scenarios
from sourcescope.dynamics import Trajectory
from sourcescope.sampling import (Sampler, oracle_delta_laplace,
                                  oracle_m_expansion)

ORACLE_LIMIT = 1e-7
SCENARIO_FILE = os.path.join("scenarios", "paper_fig1.scenario")


@dataclass
class Checked:
    runs: int           # run_scenario calls the unit made
    failed: int         # how many of them failed
    messages: list      # what failed
    rate_errors: list   # per run: mean |rho_hat - rho| / rho over events


def unit_seeds(seed):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def oracle_gap(scn):
    """Criterion 4: worst |noiseless sampler record - closed-form oracle|."""
    scn = scn.with_overrides(sigma=0.0, noise_mode="zero")
    cfg = scn.cfg
    smp = Sampler(Trajectory(scn.model, scn.generator, cfg.horizon),
                  scn.sensors, cfg)
    worst = 0.0
    for sid, g in scn.sensors:
        for n in range(cfg.n_max + 1):
            m_gap = smp.m(n, sid).value \
                - oracle_m_expansion(scn.model, g, n, cfg)
            delta = smp.laplace(n, sid).value \
                - smp.laplace(n, sid, k=0).value
            delta_gap = delta - oracle_delta_laplace(scn.model, g, n, cfg)
            worst = max(worst, abs(m_gap), abs(delta_gap))
    return worst


def _mean(errors):
    """A run's mean rate error, as a list that is empty without events."""
    return [sum(errors) / len(errors)] if errors else []


def match_failures(tag, scn, events, rho_of):
    """Failures and rate errors of one algorithm's events on `scn`: every
    catalyst needs exactly one event within beta of its intake time."""
    catalysts = scn.model.catalysts
    by_catalyst, unmatched = bounds.match_events(
        events, catalysts, scn.cfg.beta)
    failures, errors = [], []
    if unmatched:
        failures.append("%s: %d false alarm(s)" % (tag, len(unmatched)))
    missed = [i for i, ev in by_catalyst.items() if ev is None]
    if missed:
        failures.append("%s: catalyst(s) %s not detected" % (tag, missed))
    for i, ev in by_catalyst.items():
        if ev is not None and rho_of(ev) is not None:
            rho = catalysts[i].rho
            errors.append(abs(rho_of(ev) - rho) / rho)
    return failures, errors


def _read_event_log(path):
    """Events and certificate flags from an events_alg*.csv file."""
    with open(path, newline="") as fh:
        text = fh.read()
    event_part, _, cert_part = text.partition("\n\n")
    events = {}
    for row in csv.DictReader(io.StringIO(event_part)):
        rho = row.get("rho_hat", "")
        events[row["j"]] = SimpleNamespace(
            t_hat=float(row["t_hat"]), rho=float(rho) if rho else None)
    satisfied = [row["satisfied"] == "true"
                 for row in csv.DictReader(io.StringIO(cert_part))]
    return list(events.values()), satisfied


class Fig1Cli:
    """One in-process `sourcescope simulate` of paper_fig1 per unit."""

    name = "fig1_cli"
    rho_units = 8       # timed units whose rate errors the metric reads
    traced_units = 6

    def __init__(self, root, workdir):
        self.path = os.path.join(root, SCENARIO_FILE)
        self.outdir = os.path.join(workdir, self.name + "_out")

    def prepare(self):
        self.scn = scenarios.load_scenario(self.path)

    def inputs(self, seed):
        """Noise seeds of the units."""
        return unit_seeds(seed)

    def quality(self, checked):
        """(oracle gap, per-run rate errors, checks of the extra runs made
        to measure them)."""
        rates = [e for c in checked[:self.rho_units] for e in c.rate_errors]
        return oracle_gap(self.scn), rates, []

    def run(self, seed):
        argv = ["simulate", "--scenario", self.path, "--seed", str(seed),
                "--out", self.outdir]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def check(self, seed, result):
        code, stderr = result
        tag = "seed %d" % seed
        failures, errors = [], []
        if code != cli.EXIT_OK:
            failures.append("%s: exit %d: %s" % (tag, code, stderr.strip()))
        for alg in ("1", "2"):
            path = os.path.join(self.outdir, "events_alg%s.csv" % alg)
            if not os.path.exists(path):
                failures.append("%s: no %s" % (tag, os.path.basename(path)))
                continue
            events, satisfied = _read_event_log(path)
            if not all(satisfied):
                failures.append("%s alg%s: %d violated certificate(s)" % (
                    tag, alg, satisfied.count(False)))
            fails, errs = match_failures(
                "%s alg%s" % (tag, alg), self.scn, events,
                lambda ev: ev.rho)
            failures += fails
            errors += errs
        shutil.rmtree(self.outdir, ignore_errors=True)
        return Checked(1, int(bool(failures)), failures, _mean(errors))


class RandomAdmissible:
    """Build and run fresh `random_scenario` models, one per class."""

    name = "random_admissible"
    # A model takes 0.05-0.4 s depending on its background kind and catalyst
    # count, so single-model times have no steady median and a freely drawn
    # mix changes from run to run.  Each unit holds one model of each class,
    # which is the mix the generator draws on average.
    classes = [(kind, n) for kind in ("zero", "exp_decay", "sinusoid")
               for n in (1, 2)]
    rho_units = 0
    traced_units = 6
    # Models drawn from the workload seed differ in every run, and the worst
    # oracle gap over them is heavy-tailed, so the accuracy metrics come
    # from a fixed set of models of the same generator.
    reference_seeds = range(24)
    oracle_models = 4

    def __init__(self, root, workdir):
        pass

    def prepare(self):
        pass

    def inputs(self, seed):
        """Model seeds of the units, one per class; a seed drawn for a
        class the unit already holds is dropped."""
        candidates = unit_seeds(seed)
        while True:
            unit = {}
            while len(unit) < len(self.classes):
                model_seed = next(candidates)
                spec = scenarios.random_scenario(model_seed)
                unit.setdefault((spec["background"]["kind"],
                                 len(spec["catalysts"])), model_seed)
            yield tuple(unit[c] for c in self.classes)

    @staticmethod
    def _run_model(seed):
        scn = scenarios.build_scenario(scenarios.random_scenario(seed))
        return scn, bench.run_scenario(scn, algorithm="both")

    @staticmethod
    def _check_model(seed, scn, outcome):
        failures, errors = [], []
        for alg, run in sorted(outcome.results.items()):
            tag = "random seed %d alg%s" % (seed, alg)
            violated = sum(1 for c in run.certificates if not c.satisfied)
            if violated:
                failures.append("%s: %d violated certificate(s)"
                                % (tag, violated))
            rho_of = (lambda ev: ev.rho_hat) if alg == "1" \
                else (lambda ev: ev.rho_tilde)
            fails, errs = match_failures(tag, scn, run.events, rho_of)
            failures += fails
            errors += errs
        return Checked(1, int(bool(failures)), failures, _mean(errors))

    def run(self, model_seeds):
        return [self._run_model(s) for s in model_seeds]

    def check(self, model_seeds, results):
        checks = [self._check_model(s, *result)
                  for s, result in zip(model_seeds, results)]
        return Checked(len(checks), sum(c.failed for c in checks),
                       [m for c in checks for m in c.messages],
                       [e for c in checks for e in c.rate_errors])

    def quality(self, checked):
        gap, reference = 0.0, []
        for i, seed in enumerate(self.reference_seeds):
            scn, outcome = self._run_model(seed)
            reference.append(self._check_model(seed, scn, outcome))
            if i < self.oracle_models:
                gap = max(gap, oracle_gap(scn))
        return gap, [e for c in reference for e in c.rate_errors], reference


WORKLOADS = {w.name: w for w in (Fig1Cli, RandomAdmissible)}
