"""Golden-seed digests for the benchmark scenarios (PR 5 pins).

The membership-plane overhaul promises *bit-identical observable
behavior*: same deliveries, same exclusion rounds, same counter values,
same RNG streams.  These tests pin the quick-scale (5^3 members, seed
0) digest of every scenario to the value recorded on the pre-overhaul
tree, so any future change to caching, iteration order, or RNG call
sequence that perturbs observable behavior fails loudly here instead
of silently re-randomizing recorded figures.

A subprocess check re-derives two of the digests under different
``PYTHONHASHSEED`` values: digests must never depend on Python's
per-process string-hash randomization (the determinism contract of
docs/VALIDATION.md).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.perf import run_suite

#: Quick-scale (arity=5, depth=3, seed=0) digests recorded on the tree
#: *before* the membership-plane hot-path overhaul.  MUST NOT change:
#: equality here is the proof that the caching layers are observably
#: invisible.
GOLDEN_QUICK = {
    "round_loop": "f163b585c718e995eb1c4feb0f5ef6195d92ae2e",
    "churn_refresh": "4a78d816d5c0657e7c683312b54f543bd9e59bc4",
    "match_cache": "c5e2263cb011949d4fbdc68e95ef16f428803ba9",
    "membership_plane": "d72868c8237a4600643077095adbe388fc27b3aa",
    # PR 8: the variant-ablation sweep (pmcast vs flat push vs lazy
    # pull vs bounded view over the (eps, tau) grid); must equal the
    # entry committed in benchmarks/data/BENCH_CI_BASELINE.json.
    "variant_compare": "928b1b413447f5834c1e1012a17bf8937339e1f3",
}

_SUBPROCESS_SCRIPT = """\
import json
from repro.bench.perf import run_suite
report = run_suite(
    arity=5, depth=3, seed=0,
    benches=["churn_refresh", "membership_plane"],
)
current = report["results"]["current"]
print(json.dumps({name: r["digest"] for name, r in current.items()}))
"""


@pytest.fixture(scope="module")
def quick_suite():
    return run_suite(
        arity=5,
        depth=3,
        seed=0,
        benches=sorted(GOLDEN_QUICK),
    )


class TestGoldenQuickDigests:
    def test_every_scenario_matches_its_pin(self, quick_suite):
        current = quick_suite["results"]["current"]
        observed = {name: current[name]["digest"] for name in GOLDEN_QUICK}
        assert observed == GOLDEN_QUICK

    def test_rerun_is_deterministic(self):
        # Same seed, same process: a second suite must reproduce the
        # pins too (no hidden state leaks between suite runs).
        report = run_suite(
            arity=5,
            depth=3,
            seed=0,
            benches=["churn_refresh", "membership_plane"],
        )
        current = report["results"]["current"]
        assert current["churn_refresh"]["digest"] == (
            GOLDEN_QUICK["churn_refresh"]
        )
        assert current["membership_plane"]["digest"] == (
            GOLDEN_QUICK["membership_plane"]
        )


class TestHashSeedIndependence:
    def test_digests_survive_hash_randomization(self):
        # Two interpreters with different fixed string-hash seeds must
        # produce the pinned digests: nothing observable may iterate a
        # str-keyed structure in hash order.
        import repro

        src = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            observed = json.loads(result.stdout.strip())
            assert observed == {
                "churn_refresh": GOLDEN_QUICK["churn_refresh"],
                "membership_plane": GOLDEN_QUICK["membership_plane"],
            }, f"digest drift under PYTHONHASHSEED={hash_seed}"
