"""Regenerate ``reference.json``: the stored outputs the per-unit
correctness gate compares against.

    python3 perfbench/make_reference.py

For every input in each workload's fixed pool it records:
exact-sandwich, the worst upper/lower slack and decomposition residual per
cell and trial seed; continual-train, the SHA-256 of trace.json,
epochs.csv and final.ckpt per (mode, seed); certify-trained, the SHA-256
of each sequence's checkpoints and its training losses, realized test
loss and bound values at k=1 and k=2. Run it only when a change to the
program is meant to change these outputs, and say so in the change.
"""

import json
import shutil
import tempfile
from pathlib import Path

from run import HERE, ROOT, bootstrap


def main() -> None:
    bootstrap()
    from workloads import MODES, CertifyTrained, ContinualTrain, ExactSandwich, Unit, _sha256

    ref = {}
    es = ExactSandwich(0, None)
    ref[es.name] = {
        es.cell_name(n, k): [es.run_cell(c, j) for j in range(es.POOL)]
        for c, (n, k, _) in enumerate(es.CELLS)
    }
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        ct = ContinualTrain(0, None)
        ct.prepare(tmp / "continual", list(range(ct.SEED_POOL)))
        for seed in ct.seeds:
            for mode in MODES:
                unit = Unit(mode, (mode, seed))
                ct.check(unit, ct.run(unit))
        ref[ct.name] = {f"{m}-{s}": list(d) for (m, s), d in sorted(ct.digests.items())}

        cert = CertifyTrained(0, None)
        cert.sequences, cert.seen, entries = {}, {}, {}
        for seed in range(cert.SEED_POOL):
            cert.sequences[seed] = cert.train_sequence(seed, tmp / f"seq{seed}")
            entry = {"digest": _sha256(*cert.checkpoint_files(seed))}
            for k in (1, 2):
                unit = Unit(f"k{k}", (seed, k))
                result = cert.run(unit)
                cert.check(unit, result)
                entry[f"k{k}"] = cert.values(result)
            entries[str(seed)] = entry
        ref[cert.name] = entries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
