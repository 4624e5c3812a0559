"""Show that the per-unit correctness gate can fail without stopping the
harness.

    python3 perfbench/selftest.py

1. exact-sandwich with ``lemma1_trials``'s ``alpha_corruption`` hook set
   to -2.0: the failed share must be above 0 (it is 0 without the hook).
2. certify-trained with one task checkpoint truncated to 10 bytes: the
   unit that loads it must count as one failure, and the next unit, on an
   intact sequence, must still pass.

Exits 0 when both hold and prints one line per check.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, bootstrap, measure


class FixedCycle:
    """Presents a fixed list of units as every cycle of a workload."""

    def __init__(self, workload, units):
        self.workload, self.units = workload, units

    def cycle(self, i):
        return self.units

    def run(self, unit):
        return self.workload.run(unit)

    def check(self, unit, out):
        self.workload.check(unit, out)


def failed_share(m: dict) -> float:
    return sum(not ok for _, _, ok, _ in m["units"]) / len(m["units"])


def main() -> int:
    bootstrap()
    from workloads import CertifyTrained, ExactSandwich, Unit

    reference = json.loads((HERE / "reference.json").read_text())
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    results = []
    try:
        for corruption in (0.0, -2.0):
            wl = ExactSandwich(0, reference, alpha_corruption=corruption)
            wl.setup(tmp / f"es{corruption}")
            share = failed_share(measure(wl, 1.0))
            ok = share == 0.0 if corruption == 0.0 else share > 0.0
            results.append((ok, f"exact-sandwich alpha_corruption={corruption}: "
                                f"failed_share={share:.3f}"))

        cert = CertifyTrained(0, reference)
        cert.setup(tmp / "certify")
        bad, good = cert.order[0], cert.order[1]
        victim = cert.sequences[bad].paths[2]
        victim.write_bytes(victim.read_bytes()[:10])
        m = measure(FixedCycle(cert, [Unit("k1", (bad, 1)), Unit("k1", (good, 1))]), 0.0)
        oks = [ok for _, _, ok, _ in m["units"]]
        results.append((oks == [False, True],
                        f"certify-trained truncated checkpoint: unit ok flags {oks}, "
                        f"error {m['errors'][:1]}"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for ok, line in results:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
