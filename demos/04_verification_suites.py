"""Randomized verification suites and counterexample replay.

Runs a few of the property suites at modest trial counts, shows the report
fields, and demonstrates that failure records replay exactly (failures are
forced here by an artificially negative tolerance).
"""

from renyi import SUITES, replay, run_suite

SEED = 1

print("suite            trials  failures  max_violation  equality")
for name in ("lemma2", "lemma3", "lemma4", "t1", "t2_2", "t3", "triangle", "t6"):
    report = run_suite(name, 300, seed=SEED)
    print(
        f"{name:15s} {report.trials:7d} {len(report.failures):9d}"
        f"  {report.max_violation:12.3e}"
        f"   {report.equality_flagged}/{report.injected_equality}"
    )

# Every trial derives its own random substream from (seed, trial index), so
# reports are reproducible and failure records replay bit for bit.  Force
# some "failures" with an impossible tolerance to show the mechanism.
forced = run_suite("lemma4", 10, seed=SEED, tolerance=-1.0)
record = forced.failures[0]
print("\nforced failure record, trial", record.trial)
print("  original gap:", record.report.gap)
print("  replayed gap:", replay("lemma4", record.inputs).gap)
print("  identical:", replay("lemma4", record.inputs).gap == record.report.gap)

print("\nregistered suites:", ", ".join(sorted(SUITES)))
