"""Workload definitions shared by the orchestrator and the worker.

Standard library only: the orchestrator imports this module without
importing ``sure_omt``.

Every workload runs the same three user paths on its own inputs:

* ``analyze`` -- ``sure-omt analyze`` (``cli.main``) over a CSV of 2x2
  tables, file to trace, audit included; one operation is one row.
* ``sim`` -- ``sure-omt simulate`` (``cli.main``) with all 9 procedures
  and audits on; one operation is one Monte-Carlo trial.
* ``stream`` -- the 9 procedures consume a stream of ``(p, bound)`` pairs
  through ``emit_alpha``/``observe`` and are then audited; one operation
  is one step.

The workloads differ in what the inputs do to the layers, see README.md.
"""

from __future__ import annotations

PROCEDURES = ("ob", "rho-ob", "aob", "rho-aob", "lord", "rho-lord",
              "alord", "rho-alord", "saffron-capped")
FWER_PROCEDURES = ("ob", "rho-ob", "aob", "rho-aob")
# rewarded rule -> its base rule, for the domination gate
REWARDED_BASE = {"rho-ob": "ob", "rho-aob": "aob", "rho-lord": "lord",
                 "rho-alord": "alord"}
PATHS = ("analyze", "stream", "sim")

# The tuning every path uses; it is the simulate subcommand's default
# (level 0.2, lambda 0.5, power-law q=1.6, w0 = alpha/2, kernel h=100 for
# FWER rules and h=10 for mFDR rules).
ALPHA = 0.2
LAM = 0.5
Q = 1.6
ANALYZE_CONFIG = {
    "procedure": "rho-ob",
    "alpha": ALPHA,
    "gamma": {"family": "power", "q": Q},
    "gamma_prime": {"family": "kernel", "h": 10},
}

# The paper's default scenario; the workload seed becomes scenario.seed.
DEFAULT_SCENARIO = {"m": 500, "pi_a": 0.3, "n_subjects": 25, "p3": 0.4,
                    "placement": "Random"}

# Per workload and size:
#   table_trials / table_m: analyze rows and stream steps come from trials
#       0..table_trials-1 of DEFAULT_SCENARIO with m=table_m
#   mixed_rows: analyze rows and stream steps come from generated tables
#       with group sizes in [MIXED_MIN_N, MIXED_MAX_N] (analyze-mixed)
#   sim: the simulate config (scenario overrides, optional N sweep)
#   reward: gamma' of the rewarded rules on the stream path
WORKLOADS = {
    "mc-default": {
        "full": {"table_trials": 4, "table_m": 500,
                 "sim": {"scenario": {"n_trials": 10}}, "reward": "kernel"},
        "smoke": {"table_trials": 1, "table_m": 60,
                  "sim": {"scenario": {"m": 60, "n_trials": 2}}, "reward": "kernel"},
    },
    "analyze-mixed": {
        "full": {"mixed_rows": 3000,
                 "sim": {"scenario": {"m": 200, "n_trials": 1},
                         "sweep": {"axis": "N", "values": [50, 100, 200]}},
                 "reward": "kernel"},
        "smoke": {"mixed_rows": 60,
                  "sim": {"scenario": {"m": 40, "n_trials": 1},
                          "sweep": {"axis": "N", "values": [10, 60]}},
                  "reward": "kernel"},
    },
    "long-stream": {
        "full": {"table_trials": 1, "table_m": 5000,
                 "sim": {"scenario": {"m": 1000, "n_trials": 10}}, "reward": "power"},
        "smoke": {"table_trials": 1, "table_m": 300,
                  "sim": {"scenario": {"m": 300, "n_trials": 1}}, "reward": "power"},
    },
}

# Group sizes stay <= 400: from about 550-600 subjects per group the exact
# test's tail pmfs underflow and fisher_two_sided raises ValueError.
MIXED_MIN_N = 10
MIXED_MAX_N = 400
MIXED_SIGNAL_SHARE = 0.3


def sim_config(workload: str, size: str, seed: int) -> dict:
    """The JSON config handed to ``sure-omt simulate``."""
    spec = WORKLOADS[workload][size]["sim"]
    scenario = dict(DEFAULT_SCENARIO, seed=seed, **spec["scenario"])
    config = {"scenario": scenario,
              "procedures": [{"name": n} for n in PROCEDURES]}
    if "sweep" in spec:
        config["sweep"] = spec["sweep"]
    return config


def operation_counts(workload: str, size: str) -> dict[str, int]:
    """Operations one round attempts on each path: rows, steps, trials."""
    spec = WORKLOADS[workload][size]
    rows = spec.get("mixed_rows") or spec["table_trials"] * spec["table_m"]
    sim = spec["sim"]
    trials = sim["scenario"]["n_trials"] * len(sim.get("sweep", {}).get("values", [0]))
    return {"analyze": rows, "stream": rows * len(PROCEDURES), "sim": trials}
