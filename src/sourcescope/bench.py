"""Experiment orchestration: runs, sweeps, and file emission.

A run simulates the scenario's trajectory, synthesizes measurement streams,
executes the selected detectors, and certifies every event against the
theory.  Sweeps repeat runs across one axis with varied seeds and report
medians.  All emitted CSVs and SVG plots are byte-stable for a fixed
(scenario, seed) regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .hilbert import inner
from .dynamics import Trajectory
from .sampling import SampledStreams, Sampler, dump_measurements
from . import alg1 as _alg1
from . import alg2 as _alg2
from . import bounds as _bounds

THREADS_ENV = "SOURCE_SCOPE_THREADS"
SWEEP_AXES = ("beta", "L", "sigma", "N")
SWEEP_COLUMNS = ("axis", "value", "seed", "rel_coeff_err_g2", "rho1_rel",
                 "rho2_rel", "rho3_rel", "t1_err", "t2_err", "t3_err",
                 "cert_pass_rate")


@dataclass
class AlgRun:
    algorithm: str
    events: list
    certificates: list
    unmatched: list
    timing_errors: list
    rho_rel_errors: list
    rel_coeff_err_g2: float
    cert_pass_rate: float

    @property
    def all_satisfied(self):
        return not self.unmatched and all(
            c.satisfied for c in self.certificates)


@dataclass
class RunOutcome:
    scenario: object
    seed: int
    results: dict
    records: list

    @property
    def events(self):
        return [ev for run in self.results.values() for ev in run.events]

    @property
    def certificates(self):
        return [c for run in self.results.values()
                for c in run.certificates]

    @property
    def all_satisfied(self):
        return all(run.all_satisfied for run in self.results.values())


def _coeff_metric_sensor(scn):
    sids = [sid for sid, _ in scn.sensors]
    if "g2" in sids:
        return "g2"
    return sids[min(1, len(sids) - 1)]


def _metrics(scn, p_sensors, events, rho_of):
    """Timing/rate/coefficient error summaries against the true model."""
    catalysts = scn.model.catalysts
    by_catalyst, _ = _bounds.match_events(
        events, catalysts, scn.cfg.beta, tol=1e-9)
    t_errs, r_errs = [], []
    sid_metric = _coeff_metric_sensor(scn)
    g_metric = dict(scn.sensors)[sid_metric]
    num = den = 0.0
    for idx, c in enumerate(catalysts):
        ev = by_catalyst[idx]
        hg = inner(c.h, g_metric)
        den += hg * hg
        if ev is None:
            t_errs.append(math.nan)
            r_errs.append(math.nan)
            num += hg * hg
            continue
        t_errs.append(abs(ev.t_hat - c.t_intake))
        rho = rho_of(ev)
        r_errs.append(abs(rho - c.rho) / c.rho if rho is not None
                      else math.nan)
        f = ev.coeffs.get(sid_metric, 0.0)
        num += (hg - f) ** 2
    rel = math.sqrt(num / den) if den > 0 else 0.0
    return t_errs, r_errs, rel


def _run_algorithm(scn, streams, algorithm):
    if algorithm == "1":
        p = scn.alg1_params()
        events = _alg1.run_alg1(streams, p)
        certs, unmatched = _bounds.certify_alg1(events, scn.model, p)
        rho_of = lambda ev: ev.rho_hat
    elif algorithm == "2":
        p = scn.alg2_params()
        events = _alg2.run_alg2(streams, p)
        certs, unmatched = _bounds.certify_alg2(events, scn.model, p)
        rho_of = lambda ev: ev.rho_tilde
    else:
        raise InputError("unknown algorithm %r" % algorithm)
    t_errs, r_errs, rel = _metrics(scn, scn.sensors, events, rho_of)
    denom = len(certs) + len(unmatched)
    rate = (sum(1 for c in certs if c.satisfied) / denom
            if denom else 1.0)
    return AlgRun(
        algorithm=algorithm, events=events, certificates=certs,
        unmatched=unmatched, timing_errors=t_errs, rho_rel_errors=r_errs,
        rel_coeff_err_g2=rel, cert_pass_rate=rate)


def run_scenario(scn, algorithm=None, seed=None):
    """Full pipeline: simulate, sample, detect, certify.

    `algorithm` overrides the scenario's selection; `seed` overrides the
    noise seed.  Deterministic given (scenario, seed).
    """
    if seed is not None:
        scn = scn.with_overrides(seed=int(seed))
    algo = algorithm or scn.algorithm
    traj = Trajectory(scn.model, scn.generator, scn.cfg.horizon)
    sampler = Sampler(traj, scn.sensors, scn.cfg)
    streams = SampledStreams(sampler)
    results = {}
    for a in (("1", "2") if algo == "both" else (algo,)):
        results[a] = _run_algorithm(scn, streams, a)
    return RunOutcome(scenario=scn, seed=scn.cfg.seed, results=results,
                      records=streams.records())


@dataclass
class SweepResult:
    axis: str
    values: list
    rows: list
    failures: list = field(default_factory=list)

    def medians(self, key="rel_coeff_err_g2"):
        """Per-axis-value median of a row metric (nan rows ignored)."""
        out = []
        for v in self.values:
            vals = [r[key] for r in self.rows
                    if r["value"] == v and not math.isnan(r[key])]
            out.append((v, float(np.median(vals)) if vals else math.nan))
        return out


def _sweep_overrides(axis, value):
    if axis == "beta":
        return {"beta": float(value)}
    if axis == "L":
        return {"L": float(value)}
    if axis == "sigma":
        return {"sigma": float(value)}
    if axis == "N":
        return {"N": int(value)}
    raise InputError("sweep axis must be one of %s" % (SWEEP_AXES,))


def resolve_threads(threads=None):
    env = os.environ.get(THREADS_ENV)
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise InputError(
                "%s must be an integer >= 1, got %r" % (THREADS_ENV, env))
        return int(env)
    if threads:
        return max(int(threads), 1)
    return min(os.cpu_count() or 1, 8)


def run_sweep(scn, axis, values, reps=10, algorithm=None, threads=None):
    """One run per (value, seed); 'both' scenarios sweep with Algorithm 2
    except the N axis, which is Algorithm 1's fine-subdivision parameter.

    A failing point is recorded (nan metrics, pass rate 0) and the sweep
    continues.
    """
    if axis not in SWEEP_AXES:
        raise InputError("sweep axis must be one of %s" % (SWEEP_AXES,))
    algo = algorithm or scn.algorithm
    if algo == "both":
        algo = "1" if axis == "N" else "2"
    base_seed = scn.cfg.seed
    points = [(vi, v, r) for vi, v in enumerate(values)
              for r in range(reps)]

    def one(point):
        vi, v, r = point
        seed = base_seed + 1009 * r
        row = {"axis": axis, "value": v, "seed": seed,
               "rel_coeff_err_g2": math.nan,
               "rho1_rel": math.nan, "rho2_rel": math.nan,
               "rho3_rel": math.nan, "t1_err": math.nan,
               "t2_err": math.nan, "t3_err": math.nan,
               "cert_pass_rate": 0.0}
        try:
            sv = scn.with_overrides(seed=seed, **_sweep_overrides(axis, v))
            outcome = run_scenario(sv, algorithm=algo)
            run = outcome.results[algo]
        except Exception as exc:  # failed point: keep sweeping
            return vi, r, row, "%s=%r seed=%d: %s" % (axis, v, seed, exc)
        row["rel_coeff_err_g2"] = run.rel_coeff_err_g2
        for i in range(min(3, len(run.rho_rel_errors))):
            row["rho%d_rel" % (i + 1)] = run.rho_rel_errors[i]
            row["t%d_err" % (i + 1)] = run.timing_errors[i]
        row["cert_pass_rate"] = run.cert_pass_rate
        return vi, r, row, None

    n_threads = resolve_threads(threads)
    if n_threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            done = list(pool.map(one, points))
    else:
        done = [one(p) for p in points]
    done.sort(key=lambda item: (item[0], item[1]))
    rows = [item[2] for item in done]
    failures = [item[3] for item in done if item[3] is not None]
    return SweepResult(axis=axis, values=list(values), rows=rows,
                       failures=failures)


# ---------------------------------------------------------------------------
# Emission


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _event_log_lines(run):
    header = "j,t_hat,rho_hat,sensor_id,f_j,case_tag,bound_coeff,bound_rho"
    if run.algorithm == "2":
        header += ",im_residual,M_g"
    lines = [header]
    coeff_rhs = {}
    rate_rhs = {}
    for c in run.certificates:
        if c.kind in ("thm1_coeff", "thm2_coeff") \
                and c.detail in ("", "unified"):
            coeff_rhs[(c.event_ref, c.sensor_id)] = c.rhs_value
        if c.kind in ("thm1_rate", "thm2_rate"):
            rate_rhs[(c.event_ref, c.sensor_id)] = c.rhs_value
    for ev in run.events:
        rho = ev.rho_hat if run.algorithm == "1" else ev.rho_tilde
        for sid in ev.coeffs:
            cells = [
                str(ev.j), _fmt(ev.t_hat),
                _fmt(rho) if rho is not None else "",
                sid, _fmt(ev.coeffs[sid]), ev.case_tags[sid],
                _fmt(coeff_rhs.get((ev.j, sid), math.nan)),
                _fmt(rate_rhs[(ev.j, sid)])
                if (ev.j, sid) in rate_rhs else "",
            ]
            if run.algorithm == "2":
                cells.append(_fmt(ev.im_residuals[sid]))
                cells.append(_fmt(ev.M_values[sid]))
            lines.append(",".join(cells))
    lines.append("")
    lines.append("kind,rhs,observed,satisfied")
    for c in run.certificates:
        lines.append(",".join([
            c.kind, _fmt(c.rhs_value), _fmt(c.observed_error),
            "true" if c.satisfied else "false"]))
    return lines


def emit_outputs(results, outdir):
    """Write CSVs and SVG plots for runs and sweeps; returns paths.

    `results` may be a RunOutcome, a SweepResult, or a list of either.
    """
    if not isinstance(results, (list, tuple)):
        results = [results]
    os.makedirs(outdir, exist_ok=True)
    paths = []
    run_idx = 0
    for res in results:
        if isinstance(res, RunOutcome):
            run_idx += 1
            tag = "" if run_idx == 1 else "_%d" % run_idx
            mpath = os.path.join(outdir, "measurements%s.csv" % tag)
            dump_measurements(res.records, mpath)
            paths.append(mpath)
            for a, run in sorted(res.results.items()):
                epath = os.path.join(outdir, "events_alg%s%s.csv" % (a, tag))
                _write_lines(epath, _event_log_lines(run))
                paths.append(epath)
                fpath = os.path.join(
                    outdir, "fig_recovery_alg%s%s.svg" % (a, tag))
                _recovery_plot(res.scenario, run, fpath)
                paths.append(fpath)
        elif isinstance(res, SweepResult):
            spath = os.path.join(outdir, "sweep_%s.csv" % res.axis)
            lines = [",".join(SWEEP_COLUMNS)]
            for row in res.rows:
                lines.append(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS))
            _write_lines(spath, lines)
            paths.append(spath)
            supath = os.path.join(outdir, "sweep_%s_summary.csv" % res.axis)
            paths.append(supath)
            _write_lines(supath, _summary_lines(res))
            fpath = os.path.join(outdir, "fig_sweep_%s.svg" % res.axis)
            _sweep_plot(res, fpath)
            paths.append(fpath)
        else:
            raise InputError("cannot emit %r" % type(res).__name__)
    return paths


def _summary_lines(res):
    lines = ["value,median_rel_coeff_err,min_rel_coeff_err,"
             "max_rel_coeff_err,median_cert_pass_rate"]
    for v in res.values:
        errs = [r["rel_coeff_err_g2"] for r in res.rows
                if r["value"] == v and not math.isnan(r["rel_coeff_err_g2"])]
        rates = [r["cert_pass_rate"] for r in res.rows if r["value"] == v]
        if errs:
            cells = [v, float(np.median(errs)), min(errs), max(errs),
                     float(np.median(rates))]
        else:
            cells = [v, math.nan, math.nan, math.nan,
                     float(np.median(rates)) if rates else math.nan]
        lines.append(",".join(_fmt(c) for c in cells))
    return lines


# ---------------------------------------------------------------------------
# Minimal self-contained SVG plots

_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#ff7f0e")


def _svg_header(width, height, title):
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<text x="%d" y="18" font-family="monospace" font-size="13" '
        'text-anchor="middle">%s</text>' % (width // 2, title),
    ]


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return raw


def _svg_plot(path, series, title, xlabel, ylabel, logx=False, logy=False):
    """series: list of (label, xs, ys, draw_line, draw_markers)."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 36, 50
    pw, ph = width - ml - mr, height - mt - mb

    def tx(vals):
        vals = np.asarray(vals, dtype=float)
        return np.log10(vals) if logx else vals

    def ty(vals):
        vals = np.asarray(vals, dtype=float)
        return np.log10(np.maximum(vals, 1e-300)) if logy else vals

    all_x = np.concatenate([tx(s[1]) for s in series if len(s[1])])
    all_y = np.concatenate([ty(s[2]) for s in series if len(s[2])])
    all_y = all_y[np.isfinite(all_y)]
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = _svg_header(width, height, title)
    out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
               'stroke="black"/>' % (ml, mt, pw, ph))
    for v in _ticks(x_lo, x_hi):
        x = px(v)
        label = "%.4g" % (10 ** v if logx else v)
        out.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                   'stroke="black"/>' % (x, mt + ph, x, mt + ph + 5))
        out.append('<text x="%.1f" y="%d" font-family="monospace" '
                   'font-size="10" text-anchor="middle">%s</text>'
                   % (x, mt + ph + 18, label))
    for v in _ticks(y_lo, y_hi):
        y = py(v)
        label = "%.3g" % (10 ** v if logy else v)
        out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                   'stroke="black"/>' % (ml - 5, y, ml, y))
        out.append('<text x="%d" y="%.1f" font-family="monospace" '
                   'font-size="10" text-anchor="end">%s</text>'
                   % (ml - 8, y + 3, label))
    out.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
               'text-anchor="middle">%s</text>'
               % (ml + pw // 2, height - 12, xlabel))
    out.append('<text x="16" y="%d" font-family="monospace" font-size="12" '
               'text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>'
               % (mt + ph // 2, mt + ph // 2, ylabel))
    for i, (label, xs, ys, line, markers) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        xs_t, ys_t = tx(xs), ty(ys)
        pts = [(px(a), py(b)) for a, b in zip(xs_t, ys_t)
               if np.isfinite(a) and np.isfinite(b)]
        if line and len(pts) > 1:
            path_d = " ".join("%.1f,%.1f" % p for p in pts)
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (path_d, color))
        if markers:
            for a, b in pts:
                out.append('<circle cx="%.1f" cy="%.1f" r="3" '
                           'fill="%s"/>' % (a, b, color))
        out.append('<text x="%d" y="%d" font-family="monospace" '
                   'font-size="11" fill="%s">%s</text>'
                   % (ml + 8, mt + 16 + 14 * i, color, label))
    out.append("</svg>")
    _write_lines(path, out)


def _recovery_plot(scn, run, path):
    series = []
    catalysts = scn.model.catalysts
    xs = [c.t_intake for c in catalysts]
    by_catalyst, _ = _bounds.match_events(
        run.events, catalysts, scn.cfg.beta, tol=1e-9)
    for sid, g in scn.sensors:
        truth = [inner(c.h, g) for c in catalysts]
        est = [by_catalyst[i].coeffs.get(sid, math.nan)
               if by_catalyst[i] is not None else math.nan
               for i in range(len(catalysts))]
        series.append(("%s true" % sid, xs, truth, False, True))
        series.append(("%s est" % sid, xs, est, False, True))
    if not series or not xs:
        series = [("(no events)", [0.0], [0.0], False, False)]
    _svg_plot(path, series,
              "recovered coefficients vs truth (algorithm %s)"
              % run.algorithm,
              "intake time", "<h_j, g>")


def _sweep_plot(res, path):
    logx = res.axis in ("sigma", "L", "beta", "N")
    med = res.medians()
    xs = [m[0] for m in med]
    ys = [m[1] for m in med]
    series = [("median rel coeff err", xs, ys, True, True)]
    _svg_plot(path, series, "sweep over %s" % res.axis, res.axis,
              "relative coefficient error", logx=logx, logy=True)
