import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import support_to_bound
from sure_omt.procedures import (RULES, AuditReport, OnlineProcedure, ProcedureConfig,
                                 alpha_tilde_oracle, audit_fwer_budget,
                                 audit_mfdr_budget, make_procedure, reindex_clock)
from sure_omt.spending import (make_explicit, make_greedy, make_jm_family, make_kernel,
                               make_log_family, make_power_law)

from conftest import corrupted_history, random_stream, resummed_base

DYADIC = make_explicit(tuple(0.5 ** k for k in range(1, 64)))


def _cfg(**kw):
    kw.setdefault("alpha", 0.2)
    kw.setdefault("gamma", make_power_law(1.6))
    return ProcedureConfig(**kw)


def _taus(proc):
    """Rejection times, read from the reject flags."""
    return [t for t, rejected in enumerate(proc.rejects, 1) if rejected]


# -- hand-traced values -------------------------------------------------------

def test_ob_schedule_is_alpha_gamma():
    proc = make_procedure("ob", _cfg(gamma=DYADIC))
    alphas = [proc.step(0.9).alpha for _ in range(4)]
    assert alphas == [0.1, 0.05, 0.025, 0.0125]


def test_rewarded_ob_greedy_hand_trace():
    # support {0.15, 1}: any level below 0.15 is fully rewarded next step
    bound = support_to_bound((0.15, 1.0))
    proc = make_procedure("rho-ob", _cfg(gamma=DYADIC, gamma_prime=make_greedy()))
    a1 = proc.step(1.0, bound).alpha
    a2 = proc.step(1.0, bound).alpha
    a3 = proc.step(1.0, bound).alpha
    assert a1 == 0.1
    assert a2 == pytest.approx(0.15, abs=1e-15)   # 0.05 base + 0.1 reward
    assert a3 == pytest.approx(0.025, abs=1e-15)  # level 0.15 was fully spent


def test_rewarded_ob_kernel_hand_trace():
    bound = support_to_bound((0.15, 1.0))
    proc = make_procedure("rho-ob", _cfg(gamma=DYADIC, gamma_prime=make_kernel(2)))
    alphas = [proc.step(1.0, bound).alpha for _ in range(3)]
    # rewards 0.1 and 0.1 spread over windows of 2
    assert alphas == pytest.approx([0.1, 0.1, 0.125], abs=1e-15)


def test_lord_hand_trace():
    proc = make_procedure("lord", _cfg(gamma=DYADIC, w0=0.1))
    alphas = [proc.step(p).alpha for p in (0.9, 0.01, 0.01, 0.9)]
    # rejections at t=2 and t=3 re-inject wealth
    assert alphas == [0.05, 0.025, 0.0625, 0.13125]
    assert _taus(proc) == [2, 3]


def test_aob_clock_freezes_on_small_p():
    proc = make_procedure("aob", _cfg(gamma=DYADIC, lam=0.5))
    # p < lambda at t=1, 2: the clock stays at 1, so the level repeats
    a = [proc.step(p).alpha for p in (0.1, 0.1, 0.9, 0.9)]
    assert a == [0.05, 0.05, 0.05, 0.025]


def test_alord_uses_per_rejection_clocks():
    g = DYADIC
    proc = make_procedure("alord", _cfg(gamma=g, lam=0.5, w0=0.1))
    seq = [(0.4, False), (0.4, False), (0.6, False), (0.6, True),
           (0.4, False), (0.6, False), (0.6, False), (0.4, True), (0.6, True)]
    for p, rej in seq:
        before = proc.emit_alpha()
        # force the intended rejection pattern by feeding p through a bound
        proc._pending = (1.0 if rej else 0.0, *proc._pending[1:])
        proc.observe(p)
    taus = _taus(proc)
    assert taus == [4, 8, 9]
    # clocks recomputed from history match the incremental ones read at T=10
    for j in range(len(taus) + 1):
        assert proc._clock(j) == reindex_clock(proc.lam_flags, taus, j, 10)


def test_golden_clock_table():
    # eligibility pattern: p_t < lambda at t = 1, 2, 5, 8; rejections at 4, 8, 9
    flags = [t not in (1, 2, 5, 8) for t in range(1, 10)]
    taus = [4, 8, 9]
    want = {
        0: [1, 1, 1, 2, 3, 3, 4, 5, 5],
        1: [0, 0, 0, 0, 1, 1, 2, 3, 3],
        2: [0, 0, 0, 0, 0, 0, 0, 0, 1],
    }
    for j, row in want.items():
        assert [reindex_clock(flags, taus, j, t) for t in range(1, 10)] == row


def test_incremental_clocks_match_recomputation(rng):
    checked = 0
    for name in ("aob", "alord", "rho-alord", "saffron-capped"):
        for trial in range(10):
            pvals, bounds = random_stream(rng, 120)
            proc = make_procedure(name, _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10)))
            taus = []
            for p, b in zip(pvals, bounds):
                d = proc.step(p, b)
                if d.reject:
                    taus.append(d.t)
                # the clocks the next critical value reads, after every step
                for j in range(len(taus) + 1):
                    want = reindex_clock(proc.lam_flags, taus, j, proc.t + 1)
                    assert proc._clock(j) == want
                    checked += 1
    assert checked > 4 * 10 * 120


# -- structural properties ----------------------------------------------------

@pytest.mark.parametrize("base", ["ob", "aob", "lord", "alord"])
def test_rewarded_dominates_base(base, rng):
    pvals, bounds = random_stream(rng, 200)
    cfg = _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10))
    plain = make_procedure(base, cfg)
    rich = make_procedure("rho-" + base, cfg)
    for p, b in zip(pvals, bounds):
        d0 = plain.step(p, b)
        d1 = rich.step(p, b)
        assert d1.alpha >= d0.alpha
        # domination implies rejection containment
        assert d1.reject or not d0.reject


@pytest.mark.parametrize("base", ["ob", "lord"])
def test_identity_bound_reduces_to_base(base, rng):
    pvals, _ = random_stream(rng, 150)
    cfg = _cfg(w0=0.1 if base == "lord" else None, gamma_prime=make_kernel(10))
    plain = make_procedure(base, cfg)
    rich = make_procedure("rho-" + base, cfg)
    for p in pvals:
        assert rich.step(p, IDENTITY_BOUND).alpha == plain.step(p, IDENTITY_BOUND).alpha


@pytest.mark.parametrize("pair", [("rho-aob", "rho-ob"), ("rho-alord", "rho-lord")])
def test_lambda_zero_reduces_adaptive_to_plain(pair, rng):
    pvals, bounds = random_stream(rng, 150)
    cfg = _cfg(lam=0.0, w0=0.1, gamma_prime=make_kernel(10))
    a = make_procedure(pair[0], cfg)
    b = make_procedure(pair[1], cfg)
    for p, bd in zip(pvals, bounds):
        assert a.step(p, bd).alpha == b.step(p, bd).alpha


def test_dual_recursion_oracle(rng):
    for trial in range(20):
        T = rng.randint(20, 80)
        pvals, bounds = random_stream(rng, T)
        gp = rng.choice([make_kernel(5), make_kernel(1), make_greedy(),
                         make_explicit((0.4, 0.3, 0.2))])
        lam = rng.choice([0.0, 0.3, 0.5])
        cfg = _cfg(lam=lam, w0=0.1, gamma_prime=gp)
        name = rng.choice(["rho-ob", "rho-aob", "rho-lord", "rho-alord"])
        proc = make_procedure(name, cfg)
        bases = [d.base_part for d in proc.run(zip(pvals, bounds))]
        # the named non-adaptive rules ignore lambda
        effective_lam = lam if name in ("rho-aob", "rho-alord") else 0.0
        want = alpha_tilde_oracle(bases, pvals, bounds, gp, effective_lam, T)
        assert proc.alphas[-1] == pytest.approx(want, abs=1e-12)


def test_reindexation_mass_identity(rng):
    """Spending re-indexed through the clock equals a plain prefix of gamma."""
    g = make_power_law(1.6)
    for trial in range(10):
        pvals, bounds = random_stream(rng, 150)
        proc = make_procedure("rho-alord", _cfg(gamma=g, lam=0.5, w0=0.1,
                                                gamma_prime=make_kernel(10)))
        for p, b in zip(pvals, bounds):
            proc.step(p, b)
        T = proc.t
        flags, taus = proc.lam_flags, _taus(proc)
        for j in range(len(taus) + 1):
            lhs = 0.0
            for t in range(1, T + 1):
                if flags[t - 1]:
                    lhs += g.gamma(reindex_clock(flags, taus, j, t))
            upto = reindex_clock(flags, taus, j, T + 1)
            rhs = 0.0
            for k in range(1, upto):
                rhs += g.gamma(k)
            # both sides accumulate the same terms in the same order
            assert lhs == rhs


def test_greedy_reward_equals_base_plus_last_rho(rng):
    pvals, bounds = random_stream(rng, 80)
    cfg = _cfg(gamma_prime=make_greedy())
    proc = make_procedure("rho-ob", cfg)
    decisions = [proc.step(p, b) for p, b in zip(pvals, bounds)]
    for prev, d in zip(decisions, decisions[1:]):
        assert d.alpha == d.base_part + prev.rho


def _signal_stream(rng, T):
    """A random stream with a tiny p-value at about 4% of the steps."""
    pvals, bounds = random_stream(rng, T)
    strong = support_to_bound((1e-5, 0.5, 1.0))
    for i in range(T):
        if rng.random() < 0.04:
            pvals[i], bounds[i] = 1e-5, strong
    return pvals, bounds


def _scalar_sure_parts(decisions, gp, lam):
    """sum_{t<T, p_t >= lam} gamma'(T - t) * rho_t for each T, added term by term
    in ledger order: the loop runs over the ledger and is vectorized over T."""
    table = np.array([gp.gamma(k) for k in range(len(decisions) + 1)])
    sums = np.zeros(len(decisions) + 1)    # sums[T], T = 1..len
    for d in decisions:
        if d.p >= lam and d.rho > 0.0:
            sums[d.t + 1:] += table[1:len(decisions) + 1 - d.t] * d.rho
    return sums[1:].tolist()


def _scalar_lord_base(g, alpha, w0, taus, T):
    b1 = g.gamma(T - taus[0]) if taus else 0.0
    s = 0.0
    for tau in taus[1:]:
        s += g.gamma(T - tau)
    return w0 * g.gamma(T) + (alpha - w0) * b1 + alpha * s


def _scalar_alord_base(g, alpha, w0, lam, flags, taus, T):
    clocks = [reindex_clock(flags, taus, j, T) for j in range(len(taus) + 1)]
    b1 = g.gamma(clocks[1]) if taus else 0.0
    s = 0.0
    for c in clocks[2:]:
        s += g.gamma(c)
    return (1.0 - lam) * (w0 * g.gamma(clocks[0]) + (alpha - w0) * b1 + alpha * s)


@pytest.mark.parametrize("family", ["power", "log", "jm"])
def test_long_stream_reward_sums_are_exact(family, rng):
    """sure_part and base_part equal their scalar formulas (left-to-right sums)
    bit for bit, whether gamma' is shared cold or already extended by another run."""
    make_gp = {"power": lambda: make_power_law(1.6), "log": lambda: make_log_family(1.5),
               "jm": make_jm_family}[family]
    T = 3000
    pvals, bounds = _signal_stream(rng, T)
    warm = make_gp()
    make_procedure("rho-ob", _cfg(gamma_prime=warm)).run(zip(pvals, bounds))
    oracle_gp = make_gp()
    g = make_power_law(1.6)
    for name in ("rho-ob", "rho-aob", "rho-lord", "rho-alord"):
        cold = make_gp()
        cfg = _cfg(gamma=g, lam=0.5, w0=0.1, gamma_prime=cold)
        decisions = make_procedure(name, cfg).run(zip(pvals, bounds))
        lam = 0.5 if name in ("rho-aob", "rho-alord") else 0.0
        want = _scalar_sure_parts(decisions, oracle_gp, lam)
        assert [d.sure_part for d in decisions] == want, name
        assert sum(1 for d in decisions if d.sure_part > 0.0) > T // 2
        flags = [d.p >= lam for d in decisions]
        taus = []
        n_eligible = 0
        for d in decisions:
            if name == "rho-ob":
                assert d.base_part == 0.2 * g.gamma(d.t), d.t
            elif name == "rho-aob":
                assert d.base_part == 0.2 * (1.0 - lam) * g.gamma(1 + n_eligible), d.t
            elif name == "rho-lord":
                assert d.base_part == _scalar_lord_base(g, 0.2, 0.1, taus, d.t), d.t
            elif name == "rho-alord" and d.t % 100 == 0:  # reindex_clock is O(T)
                assert d.base_part == _scalar_alord_base(g, 0.2, 0.1, lam, flags, taus, d.t)
            if d.reject:
                taus.append(d.t)
            n_eligible += flags[d.t - 1]
        if name == "rho-aob":
            assert 0 < n_eligible < T
        if name in ("rho-lord", "rho-alord"):
            assert len(taus) > 50
        rerun = make_procedure(name, replace(cfg, gamma_prime=warm)).run(zip(pvals, bounds))
        assert rerun == decisions, name


@pytest.mark.parametrize("name", [name for name, rule in RULES.items() if rule.investing])
def test_investing_base_matches_the_resummed_loop(name, rng):
    """The base value of every step equals every past rejection's gamma
    re-summed in rejection order.  The first rejection comes after 1500
    eligible steps, past the first buffer of per-clock sums (1024 clocks), and
    rejected p-values below lambda make the next step read the same clock
    again, now with that rejection's gamma_1."""
    quiet, strong = support_to_bound((0.6, 1.0)), support_to_bound((1e-10, 0.5, 1.0))
    pvals, bounds = random_stream(rng, 2000)
    for i in range(len(pvals)):
        if rng.random() < 0.3:
            pvals[i], bounds[i] = 1e-10, strong
    pvals, bounds = [1.0] * 1500 + pvals, [quiet] * 1500 + bounds
    config = _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10))
    rule = RULES[name]
    lam = rule.lam(config)
    proc = make_procedure(name, config)
    n_eligible, starts, repeats = 0, [], 0
    for p, bound in zip(pvals, bounds):
        d = proc.step(p, bound)
        assert d.base_part == resummed_base(rule, config, n_eligible, starts), d.t
        n_eligible += p >= lam
        if d.reject:
            starts.append(n_eligible)
            repeats += p < lam and len(starts) > 1
    assert starts[0] > 1024 and len(starts) > 400, (name, len(starts))
    assert repeats > 200 or lam == 0.0, (name, repeats)


@pytest.mark.parametrize("name", ["rho-ob", "rho-aob", "rho-lord", "rho-alord"])
def test_kernel_sure_part_is_a_left_to_right_sum(name, rng):
    """The kernel reward part is its window summed left to right, then divided
    by h, on every Python version (builtin sum() is compensated from 3.12)."""
    h = 100
    pvals, bounds = _signal_stream(rng, 1500)
    proc = make_procedure(name, _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(h)))
    decisions = proc.run(zip(pvals, bounds))
    lam = 0.5 if name in ("rho-aob", "rho-alord") else 0.0
    differs = 0
    for d in decisions:
        # rewards of the eligible steps t with T - h <= t < T
        window = [e.rho for e in decisions[max(0, d.t - 1 - h):d.t - 1]
                  if e.p >= lam and e.rho > 0.0]
        s = 0.0
        for rho in window:
            s += rho
        assert d.sure_part == s / h, d.t
        differs += s != math.fsum(window)
    assert differs > 0


# -- budget audits ------------------------------------------------------------

@pytest.mark.parametrize("name", ["rho-ob", "rho-aob", "rho-lord", "rho-alord"])
def test_budget_audits_pass(name, rng):
    fwer = name in ("rho-ob", "rho-aob")
    for trial in range(20):
        pvals, bounds = random_stream(rng, 120)
        proc = make_procedure(name, _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10)))
        for p, b in zip(pvals, bounds):
            proc.step(p, b)
        rep = audit_fwer_budget(proc) if fwer else audit_mfdr_budget(proc)
        assert rep.ok, (name, trial, rep)
        assert rep.n_checked == 120


def test_corrupted_alphas_fail_audit(rng):
    pvals, bounds = random_stream(rng, 120)
    proc = make_procedure("rho-ob", _cfg(gamma_prime=make_kernel(10)))
    for p, b in zip(pvals, bounds):
        proc.step(p, b)
    assert audit_fwer_budget(proc).ok
    bad = corrupted_history(proc, bounds, [a * 4.0 + 0.05 for a in proc.alphas])
    assert not audit_fwer_budget(bad).ok
    assert not audit_mfdr_budget(bad).ok
    assert audit_fwer_budget(proc).ok  # the copy leaves the procedure's history as it was


def test_base_procedures_satisfy_budget(rng):
    pvals, bounds = random_stream(rng, 120)
    for name in ("ob", "aob", "lord", "alord"):
        proc = make_procedure(name, _cfg(lam=0.5, w0=0.1))
        for p, b in zip(pvals, bounds):
            proc.step(p, b)
        rep = (audit_fwer_budget(proc) if name in ("ob", "aob")
               else audit_mfdr_budget(proc))
        assert rep.ok


# -- API behavior -------------------------------------------------------------

def test_emit_observe_ordering_enforced():
    proc = make_procedure("ob", _cfg())
    with pytest.raises(RuntimeError):
        proc.observe(0.5)
    proc.emit_alpha()
    with pytest.raises(RuntimeError):
        proc.emit_alpha()
    proc.observe(0.5)
    with pytest.raises(ValueError):
        proc.step(1.5)


def test_critical_value_is_predictable(rng):
    """The emitted level must not depend on the upcoming p-value."""
    pvals, bounds = random_stream(rng, 60)
    proc = make_procedure("rho-alord", _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(5)))
    for i, (p, b) in enumerate(zip(pvals, bounds)):
        # replay the prefix on a fresh instance and compare the next level
        fresh = make_procedure("rho-alord", _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(5)))
        for q, c in zip(pvals[:i], bounds[:i]):
            fresh.step(q, c)
        assert fresh.emit_alpha() == proc.emit_alpha()
        proc.observe(p, b)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(alpha=1.2)
    with pytest.raises(ValueError):
        _cfg(lam=1.0)
    with pytest.raises(ValueError):
        _cfg(w0=0.3)  # w0 >= alpha
    with pytest.raises(ValueError):
        make_procedure("lord", _cfg())  # missing w0
    with pytest.raises(ValueError):
        make_procedure("rho-ob", _cfg())  # missing gamma_prime
    with pytest.raises(ValueError):
        make_procedure("nope", _cfg())


def test_saffron_capped_level_never_exceeds_lambda(rng):
    pvals, bounds = random_stream(rng, 150)
    proc = make_procedure("saffron-capped", _cfg(lam=0.4, w0=0.1))
    for p, b in zip(pvals, bounds):
        d = proc.step(p, b)
        assert d.alpha <= 0.4


def test_run_and_trace_rows(rng):
    pvals, bounds = random_stream(rng, 30)
    proc = make_procedure("rho-ob", _cfg(gamma_prime=make_kernel(3)))
    decisions = proc.run(zip(pvals, bounds))
    assert len(decisions) == 30
    assert [d.t for d in decisions] == list(range(1, 31))
    assert [d.alpha for d in decisions] == proc.alphas
    assert [d.reject for d in decisions] == proc.rejects
    assert decisions[-1].r_count == proc.r_count


def test_throughput_30000_steps():
    bound = support_to_bound((0.01, 0.3, 1.0))
    proc = make_procedure("rho-alord", _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(100)))
    ps = itertools.cycle((0.3, 1.0, 0.01, 1.0))
    t0 = time.perf_counter()
    for _ in range(30_000):
        proc.step(next(ps), bound)
    assert time.perf_counter() - t0 < 1.0
