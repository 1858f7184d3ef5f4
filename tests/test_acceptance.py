"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the same condition, so the suite doubles as a
human-readable scorecard:

  1. rewarded procedures dominate their bases, exactly
  2. reductions (identity bound, lambda = 0) are bit-exact
  3. dual-recursion oracle and clock mass identities
  4. budget audits pass; corrupted levels fail
  5. empirical FWER / mFDR at the default scenario stay at the target level
  6. rewarded power is at least base power on the whole sweep grid, and
     every trial's budget audit passes
  7. exact-test oracle and null-bound validity
  8. golden re-indexation clock table
  9. nominal wealth never exceeds effective wealth
"""

import math
import random
import time

import numpy as np
import pytest

from sure_omt.cli import parse_procedures
from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import fisher_margins, support_to_bound
from sure_omt.evaluate import estimate_fwer, estimate_mfdr, estimate_power
from sure_omt.procedures import (ProcedureConfig, audit_fwer_budget, audit_mfdr_budget,
                                 make_procedure)
from sure_omt.simulate import PLACEMENTS, ScenarioConfig, run_trials
from sure_omt.spending import (make_explicit, make_greedy, make_kernel,
                               make_power_law)

from conftest import corrupted_history, random_stream
from oracles import alpha_tilde_oracle, reindex_clock, wealth_curves

PAIRS = (("ob", "rho-ob"), ("aob", "rho-aob"),
         ("lord", "rho-lord"), ("alord", "rho-alord"))


def _report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cfg(**kw):
    kw.setdefault("alpha", 0.2)
    kw.setdefault("gamma", make_power_law(1.6))
    return ProcedureConfig(**kw)


def test_criterion_1_domination():
    """Rewarded critical values are pointwise >= base, zero tolerance."""
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for s in range(200):
        pvals, bounds = random_stream(rng, 300)
        for base, rich_name in PAIRS:
            cfg = _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10))
            plain = make_procedure(base, cfg)
            rich = make_procedure(rich_name, cfg)
            for p, b in zip(pvals, bounds):
                d0 = plain.step(p, b)
                d1 = rich.step(p, b)
                if d1.alpha < d0.alpha:
                    ok = False
                    worst = min(worst, d1.alpha - d0.alpha)
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 10.0,
            f"domination exact on 200 streams x 4 pairs, T=300 "
            f"(worst gap {worst}, {dt:.1f}s)")


def test_criterion_2_reductions():
    """Identity bound => rewarded == base; lambda=0 => adaptive == plain."""
    rng = random.Random(202)
    t0 = time.perf_counter()
    ok = True
    for s in range(100):
        pvals, bounds = random_stream(rng, 150)
        # identity bounds: rho-X reproduces X bit-exactly
        for base, rich_name in PAIRS:
            cfg = _cfg(lam=0.5, w0=0.1, gamma_prime=make_kernel(10))
            plain = make_procedure(base, cfg)
            rich = make_procedure(rich_name, cfg)
            for p in pvals:
                rich_alpha = rich.step(p, IDENTITY_BOUND).alpha
                ok = ok and rich_alpha == plain.step(p, IDENTITY_BOUND).alpha
        # lambda = 0: the adaptive rewarded rules reduce to the plain ones
        cfg0 = _cfg(lam=0.0, w0=0.1, gamma_prime=make_kernel(10))
        for a_name, b_name in (("rho-aob", "rho-ob"), ("rho-alord", "rho-lord")):
            a = make_procedure(a_name, cfg0)
            b = make_procedure(b_name, cfg0)
            for p, bd in zip(pvals, bounds):
                ok = ok and a.step(p, bd).alpha == b.step(p, bd).alpha
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 5.0,
            f"identity-bound and lambda=0 reductions bit-exact on 100 streams ({dt:.1f}s)")


def test_criterion_3_recursion_oracle_and_mass_identity():
    rng = random.Random(303)
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(500):
        T = rng.randint(10, 200)
        pvals, bounds = random_stream(rng, T)
        gp = rng.choice([make_kernel(5), make_kernel(50), make_greedy(),
                         make_explicit((0.5, 0.25, 0.125))])
        lam = rng.choice([0.0, 0.25, 0.5])
        name = rng.choice(["rho-ob", "rho-aob", "rho-lord", "rho-alord"])
        proc = make_procedure(name, _cfg(lam=lam, w0=0.1, gamma_prime=gp))
        decisions = proc.run(zip(pvals, bounds))
        bases = [d.base_part for d in decisions]
        # the named non-adaptive rules ignore lambda
        effective_lam = lam if name in ("rho-aob", "rho-alord") else 0.0
        want = alpha_tilde_oracle(bases, pvals, bounds, gp, effective_lam, T)
        worst = max(worst, abs(proc.alphas[-1] - want))
    ok_dual = worst <= 1e-12

    g = make_power_law(1.6)
    ok_mass = True
    for s in range(500):
        pvals, bounds = random_stream(rng, 80)
        proc = make_procedure("rho-alord", _cfg(lam=0.5, w0=0.1,
                                                gamma_prime=make_kernel(10)))
        for p, b in zip(pvals, bounds):
            proc.step(p, b)
        flags = proc.lam_flags
        taus = [t for t, rejected in enumerate(proc.rejects, 1) if rejected]
        T = proc.t
        for j in range(len(taus) + 1):
            lhs = 0.0
            for t in range(1, T + 1):
                if flags[t - 1]:
                    lhs += g.gamma(reindex_clock(flags, taus, j, t))
            rhs = 0.0
            for k in range(1, reindex_clock(flags, taus, j, T + 1)):
                rhs += g.gamma(k)
            ok_mass = ok_mass and lhs == rhs
    dt = time.perf_counter() - t0
    _report(3, ok_dual and ok_mass and dt < 10.0,
            f"dual recursion within 1e-12 (worst {worst:.2e}) on 500 instances; "
            f"clock mass identity exact on 500 streams ({dt:.1f}s)")


def test_criterion_4_budget_audits():
    rng = random.Random(404)
    t0 = time.perf_counter()
    ok_pos = True
    ok_neg = True
    for s in range(1000):
        pvals, bounds = random_stream(rng, 100)
        for name in ("rho-ob", "rho-aob", "rho-lord", "rho-alord"):
            proc = make_procedure(name, _cfg(lam=0.5, w0=0.1,
                                             gamma_prime=make_kernel(10)))
            for p, b in zip(pvals, bounds):
                proc.step(p, b)
            fwer = name in ("rho-ob", "rho-aob")
            rep = audit_fwer_budget(proc) if fwer else audit_mfdr_budget(proc)
            ok_pos = ok_pos and rep.ok
            if s % 100 == 0:
                bad = corrupted_history(proc, bounds, [a * 5.0 + 0.1 for a in proc.alphas])
                neg = audit_fwer_budget(bad) if fwer else audit_mfdr_budget(bad)
                ok_neg = ok_neg and not neg.ok
    dt = time.perf_counter() - t0
    _report(4, ok_pos and ok_neg and dt < 30.0,
            f"budget audits pass on 1000 streams x 4 rewarded rules; "
            f"corrupted levels fail ({dt:.1f}s)")


def _standard_configs(*names):
    """The simulate command's standard configuration of each named rule."""
    return parse_procedures([{"name": n} for n in names])


@pytest.mark.slow
def test_criterion_5_error_rate_control():
    t0 = time.perf_counter()
    sc = ScenarioConfig()  # m=500, N=25, pi_A=0.3, p3=0.4, 1000 trials
    configs = _standard_configs("rho-ob", "rho-aob", "rho-lord", "rho-alord")
    res = run_trials(sc, configs)
    msgs = []
    ok = res.audits_ok
    for name in ("rho-ob", "rho-aob"):
        e = estimate_fwer([res.outcomes[name]], sc.m)
        ok = ok and e.value <= 0.2 + 3 * e.se
        msgs.append(f"{name} FWER={e.value:.3f}")
    for name in ("rho-lord", "rho-alord"):
        e = estimate_mfdr([res.outcomes[name]], sc.m)
        ok = ok and e.value <= 0.2 + 3 * e.se
        msgs.append(f"{name} mFDR={e.value:.3f}")
    dt = time.perf_counter() - t0
    _report(5, ok and dt < 300.0,
            f"error rates at level 0.2 + 3se on the default scenario "
            f"({', '.join(msgs)}; {dt:.0f}s)")


@pytest.mark.slow
def test_criterion_6_power_ordering():
    t0 = time.perf_counter()
    configs = _standard_configs("aob", "rho-aob", "alord", "rho-alord")
    grid = ([("placement", v) for v in PLACEMENTS] +
            [("pi_a", round(0.1 * k, 1)) for k in range(1, 11)])
    ok = True
    details = []
    for axis, value in grid:
        sc = (ScenarioConfig(placement=value) if axis == "placement"
              else ScenarioConfig(pi_a=value))
        res = run_trials(sc, configs)
        if not res.audits_ok:
            ok = False
            details.append(f"{axis}={value}: audit failures {res.audit_failures[:3]}")
        for base, rich in (("aob", "rho-aob"), ("alord", "rho-alord")):
            pb = estimate_power([res.outcomes[base]], sc.m).value
            pr = estimate_power([res.outcomes[rich]], sc.m).value
            if pr < pb:
                ok = False
                details.append(f"{axis}={value}:{rich} {pr:.3f} < {base} {pb:.3f}")
    dt = time.perf_counter() - t0
    _report(6, ok,
            f"audits pass and power(rewarded) >= power(base) on all {len(grid)} grid points, "
            f"1000 trials each ({'; '.join(details) or 'no violations'}; {dt:.0f}s)")


def test_criterion_7_fisher_oracle_and_null_validity():
    from fractions import Fraction

    t0 = time.perf_counter()
    worst = 0.0
    for r1 in range(1, 13):
        for r2 in range(1, 13):
            for c1 in range(1, r1 + r2):
                pvals, lo, _ = fisher_margins(r1, r2, c1)
                den = math.comb(r1 + r2, c1)
                pmf = {k: Fraction(math.comb(r1, k) * math.comb(r2, c1 - k), den)
                       for k in range(lo, lo + len(pvals))}
                for k, pk in pmf.items():
                    want = float(sum(p for p in pmf.values() if p <= pk))
                    worst = max(worst, abs(pvals[k - lo] - want))
    ok_oracle = worst <= 1e-10

    rng = np.random.default_rng(707)
    n_draws = 100_000
    ok_valid = True
    for _ in range(20):
        r1 = int(rng.integers(2, 30))
        r2 = int(rng.integers(2, 30))
        c1 = int(rng.integers(1, r1 + r2))
        pvals, lo, bound = fisher_margins(r1, r2, c1)
        draws = rng.hypergeometric(r1, r2, c1, size=n_draws)
        sampled = np.asarray(pvals)[draws - lo]
        for u in bound.support:
            emp = float(np.mean(sampled <= u * (1 + 1e-12)))
            se = math.sqrt(max(emp * (1 - emp), 1e-9) / n_draws)
            ok_valid = ok_valid and emp <= bound(u) + 3 * se
    dt = time.perf_counter() - t0
    _report(7, ok_oracle and ok_valid and dt < 60.0,
            f"exact-rational oracle within 1e-10 on all margins <= 12 "
            f"(worst {worst:.2e}); null-bound validity on 20 configs x 1e5 draws "
            f"({dt:.1f}s)")


def test_criterion_8_golden_clock_table():
    flags = [t not in (1, 2, 5, 8) for t in range(1, 10)]  # p_t < lambda at 1,2,5,8
    taus = [4, 8, 9]
    want = {
        0: [1, 1, 1, 2, 3, 3, 4, 5, 5],
        1: [0, 0, 0, 0, 1, 1, 2, 3, 3],
        2: [0, 0, 0, 0, 0, 0, 0, 0, 1],
    }
    ok = all([reindex_clock(flags, taus, j, t) for t in range(1, 10)] == row
             for j, row in want.items())
    _report(8, ok, "re-indexation clocks reproduce the golden 9-step table")


def test_criterion_9_wealth_monotonicity():
    rng = random.Random(909)
    g = make_power_law(1.6)
    ok = True
    for s in range(100):
        T = rng.randint(20, 120)
        bounds = []
        for _ in range(T):
            k = rng.randint(1, 5)
            pts = sorted({round(rng.uniform(0.001, 0.9), 6) for _ in range(k)} | {1.0})
            bounds.append(support_to_bound(pts))
        alpha = rng.choice([0.05, 0.1, 0.2])
        nom, eff = wealth_curves(g, alpha, bounds, T)
        ok = ok and bool(np.all(nom <= eff))
    _report(9, ok, "nominal wealth <= effective wealth on 100 random configurations, exact")
