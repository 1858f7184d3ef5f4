"""The lockstep batch engine against the scalar machine, and the simulator
built on it against the per-trial loop it replaced."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from sure_omt.cli import parse_procedures
from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import fisher_margins, support_to_bound
from sure_omt.evaluate import (EvalReport, TrialOutcome, estimate_fwer, estimate_mfdr,
                               estimate_power)
from sure_omt.procedures import (FWER_NAMES, RULES, AuditReport, NullBounds, ProcedureConfig,
                                 audit_fwer_budget, audit_mfdr_budget, make_procedure,
                                 run_batch)
from sure_omt.simulate import (ScenarioConfig, TrialResults, TrialStream, generate_trial,
                               place_signal, run_sweep, run_trials, sweep_points)
from sure_omt.spending import (SpendingSequence, make_explicit, make_greedy, make_jm_family,
                               make_kernel, make_log_family, make_power_law)

from conftest import corrupted_history, random_stream

GAMMA_PRIMES = {
    "power": lambda: make_power_law(1.6),
    "log": lambda: make_log_family(1.5),
    "jm": make_jm_family,
    "kernel1": lambda: make_kernel(1),
    "kernel10": lambda: make_kernel(10),
    "kernel100": lambda: make_kernel(100),
    "explicit": lambda: make_explicit((0.4, 0.3, 0.2)),
    "greedy": make_greedy,
}
BASE_NAMES = [name for name, rule in RULES.items() if not rule.rewarded]
REWARDED_NAMES = [name for name, rule in RULES.items() if rule.rewarded]
CASES = ([(name, None) for name in BASE_NAMES]
         + [(name, gp) for name in REWARDED_NAMES for gp in GAMMA_PRIMES])


def _cfg(gp=None, **kw):
    kw.setdefault("alpha", 0.2)
    kw.setdefault("gamma", make_power_law(1.6))
    kw.setdefault("w0", 0.1)
    return ProcedureConfig(gamma_prime=None if gp is None else GAMMA_PRIMES[gp](), **kw)


def _loop_audit(proc, bounds, mfdr, alphas=None, tol=1e-9):
    """The per-step audit loop the array audit replaced.  It spends F of each
    level from the stream's ``bounds`` (rewarded rules) or the level itself,
    and does not read the procedure's recorded spent levels."""
    budget = (1.0 - proc._lam) * proc.config.alpha
    vals = proc.alphas if alphas is None else list(alphas)
    spent = [b(a) for b, a in zip(bounds, vals)] if proc.rewarded else vals
    worst, worst_t, r, cum = 0.0, None, 0, 0.0
    for i in range(proc.t):
        if mfdr and proc.rejects[i]:
            r += 1
        rhs = budget * max(1, r) if mfdr else budget
        excess = vals[i] + cum - rhs
        if excess > worst:
            worst, worst_t = excess, i + 1
        if proc.lam_flags[i]:
            cum += spent[i]
    return worst <= tol, worst, worst_t, proc.t


def _bounds_of(rows):
    """NullBounds of K rows of m StepCdf objects; equal objects share an index."""
    table, ids = {}, []
    for row in rows:
        ids.append([table.setdefault(id(b), (len(table), b))[0] for b in row])
    return NullBounds([b for _, b in table.values()], ids)


def _assert_batch_is_scalar(name, config, streams):
    """Batch and scalar machine agree bit for bit on every stream: alphas,
    reject flags, eligibility flags, spent levels, the audits and their
    negative controls, which audit a corrupted copy of the recorded history."""
    run = run_batch(name, config, [s[0] for s in streams],
                    _bounds_of([s[1] for s in streams]))
    corrupt = run.alphas * 5.0 + 0.3  # above the budget from the first step
    controlled = audit_mfdr_budget if RULES[name].investing else audit_fwer_budget
    audits = run.audit()
    procs, bad_procs = [], []
    for k, (pvals, bounds) in enumerate(streams):
        proc = make_procedure(name, config)
        for p, b in zip(pvals, bounds):
            proc.step(p, b)
        assert run.alphas[k].tolist() == proc.alphas, (name, k)
        assert run.rejects[k].tolist() == proc.rejects, (name, k)
        assert run.lam_flags[k].tolist() == proc.lam_flags, (name, k)
        assert run.spent[k].tolist() == proc.spent, (name, k)
        assert audits[k] == controlled(proc), (name, k)
        bad = corrupted_history(proc, bounds, corrupt[k].tolist())
        for mfdr, audit in ((False, audit_fwer_budget), (True, audit_mfdr_budget)):
            want, want_bad = audit(proc), audit(bad)
            assert (want.ok, want.worst_excess, want.worst_t, want.n_checked) == \
                _loop_audit(proc, bounds, mfdr)
            assert (want_bad.ok, want_bad.worst_excess, want_bad.worst_t,
                    want_bad.n_checked) == _loop_audit(proc, bounds, mfdr, alphas=bad.alphas)
            assert not want_bad.ok, (name, k, mfdr)
        procs.append(proc)
        bad_procs.append(bad)
    negative = replace(run, alphas=corrupt, spent=np.array([bad.spent for bad in bad_procs]))
    assert negative.audit() == [controlled(bad) for bad in bad_procs], name
    return procs


def _signal_stream(rng, T):
    """A random stream with a tiny p-value at about 10% of the steps."""
    pvals, bounds = random_stream(rng, T)
    strong = support_to_bound((1e-4, 0.5, 1.0))
    for i in range(T):
        if rng.random() < 0.1:
            pvals[i], bounds[i] = 1e-4, strong
    return pvals, bounds


@pytest.mark.parametrize("name,gp", CASES)
def test_batch_matches_online_procedure(name, gp):
    rng = random.Random(f"{name}/{gp}")
    for lam in (0.0, 0.3, 0.5):
        for K in (1, 3, 17):
            streams = [_signal_stream(rng, 150) for _ in range(K)]
            procs = _assert_batch_is_scalar(name, _cfg(gp, lam=lam), streams)
            if RULES[name].investing and not (RULES[name].capped and lam == 0.0):
                assert max(p.r_count for p in procs) >= 3  # capped at lambda = 0: none


def _dense_signal_stream(rng, T):
    """A stream with a tiny p-value at about 40% of the steps; half of the
    steps have p >= 0.5, and the other nulls lie below it."""
    strong = support_to_bound((1e-4, 0.5, 1.0))
    nulls = [support_to_bound((round(rng.uniform(0.002, 0.45), 6),
                               round(rng.uniform(0.5, 0.95), 6), 1.0)) for _ in range(64)]
    pvals, bounds = [], []
    for _ in range(T):
        u = rng.random()
        bound = strong if u < 0.4 else rng.choice(nulls)
        pvals.append(bound.support[0] if u < 0.5 else rng.choice(bound.support[1:]))
        bounds.append(bound)
    return pvals, bounds


@pytest.mark.parametrize("name", [name for name, rule in RULES.items() if rule.investing])
def test_batch_matches_online_procedure_across_refills(name):
    """Long streams with thousands of rejections, whose clocks run past the
    scalar machine's first two buffers of per-clock sums (1024 clocks, then
    2048), so it refills them at least twice."""
    rng = random.Random(f"refills/{name}")
    for lam in (0.0, 0.5):
        config = _cfg("kernel10" if RULES[name].rewarded else None, lam=lam)
        T = int(3200 / (1.0 - lam))
        streams = [_dense_signal_stream(rng, T) for _ in range(2)]
        procs = _assert_batch_is_scalar(name, config, streams)
        for proc in procs:
            assert 1 + sum(proc.lam_flags) > 1024 + 2048, (name, lam)
            if not (RULES[name].capped and lam == 0.0):  # capped at lambda = 0: none
                assert proc.r_count > 1000, (name, lam)


def _tiny(T):
    """Every p is 1e-6 and rejected; F(alpha) = 1e-6 leaves almost all of alpha unspent."""
    strong = support_to_bound((1e-6, 1.0))
    return [1e-6] * T, [strong] * T


def _quiet(T):
    """Every p is 1: no step rejects."""
    flat = support_to_bound((0.3, 1.0))
    return [1.0] * T, [flat] * T


def _at_thresholds(rng, name, config, T):
    """p equal to lambda at some steps and to the emitted alpha at others."""
    proc = make_procedure(name, config)
    pvals, bounds = [], []
    for t in range(T):
        alpha = proc.emit_alpha()
        u = rng.random()
        if u < 0.2 and config.lam > 0.0:
            p = config.lam
        elif u < 0.5 and 0.0 < alpha <= 1.0:
            p = alpha
        else:
            p = rng.choice((0.8, 1.0))
        bound = support_to_bound((p, 1.0))
        proc.observe(p, bound)
        pvals.append(p)
        bounds.append(bound)
    return pvals, bounds


@pytest.mark.parametrize("name", list(RULES))
@pytest.mark.parametrize("gp", ["power", "kernel10", "greedy"])
def test_batch_edge_streams(name, gp):
    """A rejection at t = 1 and at every step, no rejection, p equal to lambda
    or to alpha, and investing alphas above 1, in one batch."""
    rng = random.Random(7)
    T = 80
    for lam in (0.0, 0.3):
        config = _cfg(gp if RULES[name].rewarded else None, lam=lam)
        streams = [_tiny(T), _quiet(T), random_stream(rng, T)]
        streams += [_at_thresholds(rng, name, config, T) for _ in range(3)]
        procs = _assert_batch_is_scalar(name, config, streams)
        if RULES[name].capped and lam == 0.0:
            continue  # every level is 0
        assert procs[0].rejects[0] and not any(procs[1].rejects)
        assert any(p == a for proc, (pvals, _) in zip(procs[3:], streams[3:])
                   for p, a in zip(pvals, proc.alphas))
        if name == "rho-lord" and gp == "greedy":
            assert max(procs[0].alphas) > 1.0


def test_batch_rejects_bad_input():
    bounds = _bounds_of([[support_to_bound((0.5, 1.0))] * 3])
    with pytest.raises(ValueError):
        run_batch("ob", _cfg(), [[0.1, 1.5, 0.2]], bounds)
    with pytest.raises(ValueError):
        run_batch("ob", _cfg(), [[0.1, 0.2]], bounds)
    with pytest.raises(ValueError):
        run_batch("rho-ob", _cfg(), [[0.1, 0.2, 0.3]], bounds)  # no gamma'


@pytest.mark.parametrize("levels,worst_t", [
    ([0.1, math.nan, 0.5], 2), ([0.1, math.inf, 0.5], 2), ([0.1, 0.1, math.nan], 3),
])
@pytest.mark.parametrize("bound", [IDENTITY_BOUND, support_to_bound((0.05, 1.0))])
def test_audits_fail_on_a_non_finite_level(levels, worst_t, bound):
    """A non-finite level fails every audit at its first step, with excess inf.
    A NaN used to pass: argmax landed on it and NaN > 0 is false, although step
    3 of [0.1, nan, 0.5] overspends the budget of 0.2 by 0.3."""
    config = _cfg(lam=0.0)
    bounds = [bound] * len(levels)
    want = AuditReport(ok=False, worst_excess=math.inf, worst_t=worst_t, n_checked=3)
    for name in ("ob", "lord"):  # the batch audits FWER for one and mFDR for the other
        proc = make_procedure(name, config)
        for b in bounds:
            proc.step(0.5, b)
        bad = corrupted_history(proc, bounds, levels)
        assert audit_fwer_budget(bad) == audit_mfdr_budget(bad) == want
        run = run_batch(name, config, [[0.5] * len(levels)], _bounds_of([bounds]))
        assert replace(run, alphas=np.array([levels]), spent=np.array([bad.spent])).audit() \
            == [want]


def test_null_bounds_match_step_cdf(rng):
    """F from the batch table equals StepCdf.__call__, above 1 and at jump points too."""
    table = [support_to_bound(sorted({round(rng.uniform(0.001, 0.99), 4)
                                      for _ in range(rng.randint(0, 6))} | {1.0}))
             for _ in range(40)]
    table.append(IDENTITY_BOUND)
    ids = np.array([[rng.randrange(len(table)) for _ in range(300)] for _ in range(4)])
    bounds = NullBounds(table, ids)
    u = np.array([[rng.choice((rng.uniform(0, 1.3), rng.choice(table[i].support), 0.0))
                   for i in row] for row in ids])
    got = np.column_stack([bounds.cdf(u[:, i], i) for i in range(u.shape[1])])
    want = [[table[i](x) for i, x in zip(row, xs)] for row, xs in zip(ids, u.tolist())]
    assert got.tolist() == want


# -- the simulator ---------------------------------------------------------------

def _loop_generate_trial(config, trial_index):
    """The per-position trial generator the numpy one replaced."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))
    m, n = config.m, config.n_subjects
    h1 = place_signal(m, config.m3, config.placement, rng)
    labels = np.zeros(m, dtype=bool)
    for i in h1:
        labels[i - 1] = True
    probs = np.empty(m)
    null_seen = 0
    for i in range(m):
        if labels[i]:
            probs[i] = config.p_null_mid
        else:
            probs[i] = config.p_null_low if null_seen < config.m1 else config.p_null_mid
            null_seen += 1
    probs_a = np.where(labels, config.p3, probs)
    succ_a = rng.binomial(n, probs_a)
    succ_b = rng.binomial(n, probs)
    tables, pvals, bounds = [], [], []
    for i in range(m):
        a, c = int(succ_a[i]), int(succ_b[i])
        tables.append((a, n - a, c, n - c))
        pv, lo, bound = fisher_margins(n, n, a + c)
        pvals.append(pv[a - lo])
        bounds.append(bound)
    return TrialStream(tables=tables, labels=labels, pvals=pvals, bounds=bounds)


@pytest.mark.parametrize("scenario", [
    ScenarioConfig(m=120, seed=4), ScenarioConfig(m=57, pi_a=0.5, placement="BM", seed=2),
    ScenarioConfig(m=40, n_subjects=0), ScenarioConfig(m=90, pi_a=0.0, n_subjects=60),
    ScenarioConfig(m=33, pi_a=1.0, placement="E"),
])
def test_generate_trial_keeps_its_draws(scenario):
    for i in range(3):
        got, want = generate_trial(scenario, i), _loop_generate_trial(scenario, i)
        assert got.tables == want.tables
        assert got.pvals == want.pvals and all(type(p) is float for p in got.pvals)
        assert all(a is b for a, b in zip(got.bounds, want.bounds))
        assert got.labels.dtype == bool and got.labels.tolist() == want.labels.tolist()


def _loop_run_trials(scenario, configs):
    """The per-trial, per-step loop run_trials replaced, audits included."""
    outcomes = {name: [] for name in configs}
    failures = []
    for i in range(scenario.n_trials):
        stream = generate_trial(scenario, i)
        for name, config in configs.items():
            proc = make_procedure(name, config)
            for p, bound in zip(stream.pvals, stream.bounds):
                proc.step(p, bound)
            outcomes[name].append(TrialOutcome(proc.rejects, stream.labels))
            rep = audit_fwer_budget(proc) if name in FWER_NAMES else audit_mfdr_budget(proc)
            if not rep.ok:
                failures.append((name, i))
    return TrialResults(outcomes=outcomes, audits_ok=not failures, audit_failures=failures)


def _loop_run_sweep(points):
    report = EvalReport()
    for point in points:
        results = _loop_run_trials(point.scenario, point.configs)
        report.audits_ok = report.audits_ok and results.audits_ok
        T = point.scenario.m
        for name, trials in results.outcomes.items():
            report.add(name, "fwer", estimate_fwer(trials, T), T, **point.keys)
            report.add(name, "mfdr", estimate_mfdr(trials, T), T, **point.keys)
            report.add(name, "power", estimate_power(trials, T), T, **point.keys)
    return report


ALL_STANDARD = parse_procedures([{"name": name} for name in RULES])


@pytest.mark.parametrize("axis,values", [
    (None, None), ("N", [0, 3, 25]), ("lambda", [0.0, 0.3, 0.7]), ("h", [1, 10, 100]),
    ("placement", ["B", "ME", "Random"]),
])
def test_run_sweep_matches_per_trial_loop(axis, values, tmp_path):
    points = sweep_points(ScenarioConfig(m=80, n_trials=6, seed=5), ALL_STANDARD, axis, values)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    run_sweep(points).write(got)
    _loop_run_sweep(points).write(want)
    assert got.read_bytes() == want.read_bytes()


def test_run_trials_reports_audit_failures_in_trial_order():
    # mass 5, which make_explicit rejects: the budget audits must fail
    overspent = SpendingSequence(kind="explicit", values=(0.5,) * 10)
    configs = {name: ProcedureConfig(alpha=c.alpha, gamma=overspent, lam=c.lam, w0=c.w0,
                                     gamma_prime=c.gamma_prime)
               for name, c in ALL_STANDARD.items()}
    scenario = ScenarioConfig(m=60, n_trials=8, seed=3)
    got, want = run_trials(scenario, configs), _loop_run_trials(scenario, configs)
    assert len(want.audit_failures) > 8
    assert got.audit_failures == want.audit_failures and not got.audits_ok
    for name in configs:
        assert got.outcomes[name].rejects.tolist() == \
            [o.rejects.tolist() for o in want.outcomes[name]]
