"""The lockstep batch engine against the scalar machine, and the simulator
built on it against the per-trial loop it replaced."""

import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sure_omt import simulate
from sure_omt.cli import parse_procedures
from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import fisher_margins, support_to_bound
from sure_omt.evaluate import (EvalReport, TrialOutcome, estimate_fwer, estimate_mfdr,
                               estimate_power)
from sure_omt.procedures import (FWER_NAMES, RULES, AuditReport, NullBounds, ProcedureConfig,
                                 audit_fwer_budget, audit_mfdr_budget, make_procedure,
                                 run_batch)
from sure_omt.simulate import (BATCH_COLUMNS, ScenarioConfig, TrialResults, TrialStream,
                               generate_trial, place_signal, run_sweep, run_trials,
                               sweep_points)
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
    run = run_batch({name: config}, [s[0] for s in streams],
                    _bounds_of([s[1] for s in streams]))[name]
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


def test_a_base_rule_spends_its_alphas_themselves():
    """A base rule keeps no copy of its levels: its ``spent`` is its ``alphas``
    object, in the scalar machine and in the batch; a rewarded rule keeps a
    list and a matrix of its own, of F_t(alpha_t)."""
    pvals, bounds = _signal_stream(random.Random(11), 80)
    configs = {name: _cfg("kernel10" if rule.rewarded else None, lam=0.5)
               for name, rule in RULES.items()}
    runs = run_batch(configs, [pvals], _bounds_of([bounds]))
    for name, config in configs.items():
        proc = make_procedure(name, config)
        proc.run(zip(pvals, bounds))
        run = runs[name]
        if RULES[name].rewarded:
            assert proc.spent is not proc.alphas, name
            assert proc.spent == [b(a) for b, a in zip(bounds, proc.alphas)], name
            assert not np.shares_memory(run.spent, run.alphas), name
        else:
            assert proc.spent is proc.alphas, name
            assert run.spent is run.alphas, name
        assert len(proc.spent) == len(proc.alphas) == proc.t == 80, name


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


@pytest.mark.parametrize("name,gp", [
    *(pytest.param(name, "kernel10" if rule.rewarded else None, id=name)
      for name, rule in RULES.items() if rule.investing),
    *(pytest.param(name, "power", id=f"{name}-power") for name in REWARDED_NAMES)])
def test_batch_matches_online_procedure_across_refills(name, gp):
    """Long streams, with thousands of rejections for the investing rules,
    whose clocks run past the scalar machine's first two buffers of per-clock
    sums (1024 clocks, then 2048), so it refills them at least twice.  With a
    power gamma', the batch sums the rewards over its time-major array and the
    scalar machine reads its buffered reward sums."""
    rng = random.Random(f"refills/{name}")
    for lam in (0.0, 0.5):
        config = _cfg(gp, lam=lam)
        T = int(3200 / (1.0 - lam))
        streams = [_dense_signal_stream(rng, T) for _ in range(2)]
        procs = _assert_batch_is_scalar(name, config, streams)
        for proc in procs:
            assert 1 + sum(proc.lam_flags) > 1024 + 2048, (name, lam)
            if RULES[name].investing and not (RULES[name].capped and lam == 0.0):
                assert proc.r_count > 1000, (name, lam)  # capped at lambda = 0: none


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
        run_batch({"ob": _cfg()}, [[0.1, 1.5, 0.2]], bounds)
    with pytest.raises(ValueError):
        run_batch({"ob": _cfg()}, [[0.1, 0.2]], bounds)
    with pytest.raises(ValueError):
        run_batch({"rho-ob": _cfg()}, [[0.1, 0.2, 0.3]], bounds)  # no gamma'


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
        run = run_batch({name: config}, [[0.5] * len(levels)], _bounds_of([bounds]))[name]
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


@pytest.mark.parametrize("gp", ["power", "kernel10", "explicit"])
@pytest.mark.parametrize("width", [1, 2, 3, 17, 1000])
def test_reward_part_adds_each_window_left_to_right(width, gp):
    """The batch adds each collected reward to the reward parts of the steps it
    reaches, in event order, as the scalar machine sums them: at every width,
    the alphas and spent levels of rho-ob and rho-aob, one run of two rows
    sharing one gamma', are the scalar machine's bytes.  The bounds' support
    points span many orders of magnitude, so the rewards do too, and lambda =
    0.5 leaves many steps of rho-aob without one, so another order of the sum
    shows."""
    rng = np.random.default_rng(width)
    m = 60
    pool = [support_to_bound(10.0 ** -rng.uniform(0, 12, rng.integers(1, 60)))
            for _ in range(40)]
    ids = rng.integers(len(pool), size=(width, m))
    pvals = rng.random((width, m))
    config = _cfg(gp, lam=0.5)
    runs = run_batch({"rho-ob": config, "rho-aob": config}, pvals, NullBounds(pool, ids))
    for name, run in runs.items():
        for k, (ps, ks) in enumerate(zip(pvals.tolist(), ids.tolist())):
            proc = make_procedure(name, config)
            for p, i in zip(ps, ks):
                proc.step(p, pool[i])
            assert run.alphas[k].tobytes() == np.array(proc.alphas).tobytes(), (name, k)
            assert run.spent[k].tobytes() == np.array(proc.spent).tobytes(), (name, k)


SPENDINGS = [lambda: make_power_law(1.6), lambda: make_power_law(3.0),
             lambda: make_log_family(1.5), make_jm_family, lambda: make_kernel(5),
             lambda: make_explicit((0.4, 0.3, 0.2)), make_greedy]


@st.composite
def _mixed_batches(draw):
    """Any subset of the 9 procedures, each with its own gamma, gamma', lambda,
    w0 and alpha, over K <= 4 streams of m <= 40 steps.  The bounds include the
    identity; p lies on or off its bound's support."""
    names = draw(st.lists(st.sampled_from(list(RULES)), min_size=1, max_size=9, unique=True))
    configs = {}
    for name in names:
        rule = RULES[name]
        alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
        configs[name] = ProcedureConfig(
            alpha=alpha, gamma=draw(st.sampled_from(SPENDINGS))(),
            lam=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9])),
            w0=alpha * draw(st.sampled_from([0.1, 0.5, 0.9])) if rule.investing else None,
            gamma_prime=GAMMA_PRIMES[draw(st.sampled_from(list(GAMMA_PRIMES)))]()
            if rule.rewarded else None)
    K, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    point = st.floats(0.001, 0.99).map(lambda x: round(x, 4))
    table = [IDENTITY_BOUND] + [
        support_to_bound(sorted(set(draw(st.lists(point, max_size=4))) | {1.0}))
        for _ in range(draw(st.integers(1, 4)))]
    ids = [[draw(st.integers(0, len(table) - 1)) for _ in range(m)] for _ in range(K)]
    pvals = [[draw(st.one_of(st.sampled_from(table[i].support),
                             st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
                             st.floats(0.0, 1.0))) for i in row] for row in ids]
    return configs, pvals, [[table[i] for i in row] for row in ids]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("streams", [None, 1, 3])
@settings(max_examples=40)
@given(batch=_mixed_batches())
def test_mixed_batch_matches_each_rule_alone_and_the_scalar_machine(streams, batch):
    """Every rule of a fused batch equals the same rule run alone and the scalar
    machine, bit for bit, on alphas, reject and eligibility flags, spent levels
    and audit verdicts; also with the K streams passed to run_batch in chunks
    of 1 or 3 streams, as the simulator passes its trials."""
    configs, pvals, bound_rows = batch
    size = streams or len(pvals)
    for name, config in configs.items():
        controlled = audit_mfdr_budget if RULES[name].investing else audit_fwer_budget
        procs = []
        for row, bound_row in zip(pvals, bound_rows):
            procs.append(make_procedure(name, config))
            for p, b in zip(row, bound_row):
                procs[-1].step(p, b)
        got_fused, got_alone = [], []
        for lo in range(0, len(pvals), size):
            bounds = _bounds_of(bound_rows[lo:lo + size])
            fused = run_batch(configs, pvals[lo:lo + size], bounds)
            assert list(fused) == list(configs)
            alone = run_batch({name: config}, pvals[lo:lo + size], bounds)[name]
            for k, proc in enumerate(procs[lo:lo + size], start=lo):
                for run in (fused[name], alone):
                    assert _bits(run.alphas[k - lo]) == _bits(proc.alphas), (name, k)
                    assert run.rejects[k - lo].tolist() == proc.rejects, (name, k)
                    assert run.lam_flags[k - lo].tolist() == proc.lam_flags, (name, k)
                    assert _bits(run.spent[k - lo]) == _bits(proc.spent), (name, k)
            got_fused += fused[name].audit()
            got_alone += alone.audit()
        assert got_fused == got_alone == [controlled(proc) for proc in procs], name


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
    return TrialResults(outcomes=outcomes, audit_failures=failures)


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


@pytest.mark.parametrize("columns", [1, 3, 27, 1024])
def test_run_sweep_does_not_depend_on_its_chunks(columns, tmp_path, monkeypatch):
    """The CSV and JSON report of an N sweep are byte for byte those of one
    chunk per sweep, with chunks of 1 or 3 trials (1 and 3 columns cut the 9
    procedures to 1 trial, 27 to 3), so that a chunk spans two points."""
    points = sweep_points(ScenarioConfig(m=50, n_trials=5, seed=9), ALL_STANDARD, "N", [10, 25])
    assert BATCH_COLUMNS // len(ALL_STANDARD) >= 10  # the default runs one chunk

    def report(label):
        paths = tmp_path / f"{label}.csv", tmp_path / f"{label}.json"
        run_sweep(points).write(*paths)
        return [path.read_bytes() for path in paths]

    one = report("one")
    monkeypatch.setattr(simulate, "BATCH_COLUMNS", columns)
    assert report("cut") == one


def test_run_trials_memory_is_flat_in_the_number_of_trials():
    """The traced peak of 904 trials (8 chunks of the 9 procedures) stays
    below twice that of 113 (one chunk): the chunks are dropped once their
    reject flags, labels and verdicts are kept."""
    run_trials(ScenarioConfig(m=100, seed=1, n_trials=10), ALL_STANDARD)  # warm the caches
    peaks = []
    for n_trials in (113, 904):
        tracemalloc.start()
        try:
            run_trials(ScenarioConfig(m=100, seed=1, n_trials=n_trials), ALL_STANDARD)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


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
