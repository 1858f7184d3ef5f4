"""Exact error rates by enumeration: the paper's guarantees checked with no
Monte-Carlo error.

Every outcome path of a short stream is one of the K streams of
``run_batch``, weighted by its probability.  A step's null bound is the exact
null CDF of its p-value: the conditional CDF of a two-sided Fisher test, or
a synthetic null that puts mass s_j - s_{j-1} on each support point s_j.  So,
given the past, a null p-value is at most alpha_t with probability
F_t(alpha_t), and since alpha_t is fixed before p_t is seen, over the null
steps E[V] = E[sum_t F_t(alpha_t)] for every rule, V being the number of
false rejections.  This is the step the FWER and mFDR proofs rest on (the
predictability argument of alpha-investing, Foster and Stine 2008, and of
LORD, Javanmard and Montanari 2018); the audits cannot see a bound read too
low or a level that reads p_t, and this identity and the error rates can.

The probabilities are dyadic: success rates 1/2 and 7/8, and the support
SUPPORT.  So every path weight is exact, every weighted sum of the synthetic
streams is exact before its one rounding, and only the Fisher p-values,
float tail sums, stand between the two sides of the identity.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sure_omt.core import StepCdf
from sure_omt.discrete import ContingencyTable2x2, fisher_two_sided
from sure_omt.procedures import RULES, NullBounds, ProcedureConfig, run_batch
from sure_omt.spending import make_explicit, make_greedy, make_kernel, make_power_law

ALPHA, LAM, W0 = 0.2, 0.5, 0.1
SUPPORT = (1 / 64, 1 / 8, 3 / 8, 1.0)
# a bound on the relative error of a Fisher p-value for two groups of 4
# against its exact rational tail (the largest is 10.25 times 2^-52)
FISHER_REL_ERROR = 11 * 2.0 ** -52
REWARDED_BASE = {name: name.removeprefix("rho-") for name, rule in RULES.items()
                 if rule.rewarded}


def synthetic(alternative: bool):
    """The (p, bound, probability) outcomes of one step with the support
    SUPPORT: a null puts mass s_j - s_{j-1} on s_j, an alternative halves its
    mass from point to point."""
    bound = StepCdf(SUPPORT)
    masses = (1 / 2, 1 / 4, 1 / 8, 1 / 8) if alternative else np.diff(SUPPORT, prepend=0.0)
    return [(p, bound, float(w)) for p, w in zip(SUPPORT, masses)]


def fisher(alternative: bool, n: int = 4):
    """The distinct (p, bound, probability) outcomes of a two-sided Fisher test
    of two groups of n subjects, each with success rate 1/2 (group A's is 7/8
    under the alternative)."""
    rate = 7 / 8 if alternative else 1 / 2
    outcomes = {}
    for a in range(n + 1):
        for c in range(n + 1):
            r = fisher_two_sided(ContingencyTable2x2(a, n - a, c, n - c))
            w = math.comb(n, a) * rate ** a * (1 - rate) ** (n - a) * math.comb(n, c) / 2 ** n
            key = r.p_value, r.support.tobytes()
            p, bound, mass = outcomes.get(key, (r.p_value, r.null_bound, 0.0))
            outcomes[key] = (p, bound, mass + w)
    return list(outcomes.values())


def _stream(step, m, alternatives=()):
    """The outcomes of each of m steps, the alternative steps, and the
    relative error the identity below allows."""
    return ([step(t in alternatives) for t in range(m)], alternatives,
            FISHER_REL_ERROR if step is fisher else 0.0)


STREAMS = {
    "fisher-null": _stream(fisher, 4),
    "fisher-alternatives": _stream(fisher, 4, (1, 3)),
    "synthetic-null": _stream(synthetic, 5),
    "synthetic-alternatives": _stream(synthetic, 5, (0, 2)),
}
# gamma and gamma' of every rule: the default, and one that spends the whole
# budget within the stream and passes every reward on at the next step
SPENDING = {
    "power-kernel": (make_power_law(1.6), make_kernel(2)),
    "tight-greedy": (make_explicit([1 / 4] * 4), make_greedy()),
}


class Paths:
    """Every outcome path of a stream of ``steps`` (each a list of outcomes),
    one per row: p-values, null bounds, weights and alternative flags."""

    def __init__(self, steps, alternative_steps, rel_error):
        sizes = [len(outcomes) for outcomes in steps]
        choice = np.indices(sizes).reshape(len(steps), -1).T  # K x m outcome indices
        offsets = np.cumsum([0, *sizes[:-1]])
        self.table = [bound for outcomes in steps for _, bound, _ in outcomes]
        self.ids = choice + offsets
        self.pvals = np.array([p for outcomes in steps for p, _, _ in outcomes])[self.ids]
        masses = np.array([w for outcomes in steps for _, _, w in outcomes])[self.ids]
        self.weights = masses.prod(axis=1)
        self.alternative = np.isin(np.arange(len(steps)), alternative_steps)
        self.rel_error = rel_error
        width = max(len(bound.support) for bound in self.table)
        self._points = np.array([(*bound.support, *[np.inf] * (width - len(bound.support)))
                                 for bound in self.table])

    def cdf(self, alphas):
        """F of each step's own bound at ``alphas`` (K x m): the largest of its
        support points at most alpha, not read through the NullBounds under test."""
        points = self._points[self.ids]  # K x m x (points of the longest support)
        return np.where(points <= alphas[..., None], points, 0.0).max(axis=-1)

    def mean(self, per_path):
        return math.fsum((self.weights * per_path).tolist())


def _configs(spending):
    gamma, gamma_prime = SPENDING[spending]
    return {name: ProcedureConfig(alpha=ALPHA, gamma=gamma, lam=LAM if rule.adaptive else 0.0,
                                  w0=W0 if rule.investing else None,
                                  gamma_prime=gamma_prime if rule.rewarded else None)
            for name, rule in RULES.items()}


def _enumerate(stream, spending):
    """(paths, runs of all 9 rules over them) of a stream and a spending choice."""
    paths = Paths(*STREAMS[stream])
    return paths, run_batch(_configs(spending), paths.pvals, NullBounds(paths.table, paths.ids))


CASES = [(stream, spending) for stream in STREAMS for spending in SPENDING]


@pytest.fixture(scope="module", params=CASES, ids="/".join)
def enumerated(request):
    return _enumerate(*request.param)


def test_every_step_holds_each_outcome_with_its_probability():
    for steps, _, _ in STREAMS.values():
        for outcomes in steps:
            assert math.fsum(w for _, _, w in outcomes) == 1.0
    # the distinct (p, bound) outcomes of a Fisher test of two groups of 4
    assert len(STREAMS["fisher-null"][0][0]) == 12


def test_fisher_p_values_of_two_groups_of_4_are_within_their_error_of_the_exact_tails():
    for c1 in range(9):
        pmf = {a: Fraction(math.comb(4, a) * math.comb(4, c1 - a), math.comb(8, c1))
               for a in range(max(0, c1 - 4), min(4, c1) + 1)}
        for a, mass in pmf.items():
            p = fisher_two_sided(ContingencyTable2x2(a, 4 - a, c1 - a, 4 - c1 + a)).p_value
            tail = sum(q for q in pmf.values() if q <= mass)
            assert abs(Fraction(p) - tail) <= FISHER_REL_ERROR * tail


def test_false_rejections_equal_the_null_mass_spent(enumerated):
    """E[V] = E[sum of F_t(alpha_t) over the null steps], for every rule: bit
    for bit for the synthetic nulls, and within the float error of Fisher's
    p-values for the Fisher tests."""
    paths, runs = enumerated
    null = ~paths.alternative
    for name, run in runs.items():
        ev = paths.mean((run.rejects & null).sum(axis=1))
        ef = paths.mean((paths.cdf(run.alphas) * null).sum(axis=1))
        assert abs(ev - ef) <= paths.rel_error * ef, (name, ev, ef)


def test_exact_error_rates_stay_within_alpha(enumerated):
    """The FWER of the FWER rules and the mFDR of the investing rules are at
    most alpha."""
    paths, runs = enumerated
    null = ~paths.alternative
    for name, run in runs.items():
        false = (run.rejects & null).sum(axis=1)
        if RULES[name].investing:
            rate = paths.mean(false) / paths.mean(np.maximum(1, run.rejects.sum(axis=1)))
        else:
            rate = paths.mean(false > 0)
        assert rate <= ALPHA, (name, rate)


@pytest.mark.parametrize("case", [case for case in CASES if STREAMS[case[0]][1]],
                         ids="/".join)
def test_each_rewarded_rule_has_at_least_its_base_power(case):
    paths, runs = _enumerate(*case)
    for rewarded, base in REWARDED_BASE.items():
        power = {name: paths.mean((runs[name].rejects & paths.alternative).sum(axis=1))
                 for name in (rewarded, base)}
        assert power[rewarded] >= power[base], power
