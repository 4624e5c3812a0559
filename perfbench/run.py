"""cclab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ``cclab`` is imported from
``src/`` next to this directory, and the harness exits with code 2 without
a result when it is missing. Single process, closed loop, one client.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates traced and untraced cycles, reports the per-layer metrics of
the traced units and the tracing overhead, and writes every span to
``.perfbench_out/``. Both print human-readable lines, a ``detail`` JSON
line (environment, sample counts, per-cell medians, gate failures), and
last a JSON result line. Scratch files go to ``.perfbench_work/`` and are
deleted before exit. The metric names and units printed in the result
line are those listed in ``BENCHMARK.json``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
MIN_TAIL_BEYOND = 10
MAX_ERRORS_KEPT = 5


def _git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(np) -> dict:
    """BLAS library and the thread count it reports, via ctypes on the
    OpenBLAS bundled with numpy; ``threads`` is None when not found."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "pinned_env": {v: os.environ[v] for v in BLAS_ENV}}


def environment(np, workload: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_threads(np),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "workload": workload,
        "seed": seed,
    }


def measure(wl, seconds: float, tracer=None, pauses=(), pause=None) -> dict:
    """Run whole cycles until ``seconds`` of wall time have passed.

    With a tracer, even cycles are traced and odd ones are not; the two
    halves give the tracing overhead. Unit latency covers only the calls
    into cclab; the correctness check runs after it, inside the wall time.
    ``pause`` is called once between two cycles as each offset in
    ``pauses`` (seconds into the run) is passed; its time is not counted.
    """
    units = []  # (cell, latency s, ok, traced)
    errors, wall = [], {True: 0.0, False: 0.0}
    cycle = unit_id = 0
    pending, paused = sorted(pauses), 0.0
    begin = perf_counter()
    while True:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        c0 = perf_counter()
        for unit in wl.cycle(cycle):
            t0, t1, ok = perf_counter(), None, True
            try:
                if traced:
                    with tracer.unit(unit_id):
                        out = wl.run(unit)
                else:
                    out = wl.run(unit)
                t1 = perf_counter()
                wl.check(unit, out)
            except Exception as exc:  # a failed unit is counted, never fatal
                t1 = t1 or perf_counter()
                ok = False
                if len(errors) < MAX_ERRORS_KEPT:
                    kind = type(exc).__module__ + "." + type(exc).__qualname__
                    errors.append(f"{unit.cell} {unit.key}: {kind}: {exc}")
            units.append((unit.cell, t1 - t0, ok, traced))
            unit_id += 1
        wall[traced] += perf_counter() - c0
        if traced:
            tracer.uninstall()
        cycle += 1
        while pending and perf_counter() - begin - paused >= pending[0]:
            pending.pop(0)
            p0 = perf_counter()
            pause()
            paused += perf_counter() - p0
        if perf_counter() - begin - paused >= seconds:
            break
    return {"units": units, "errors": errors, "wall": wall, "cycles": cycle,
            "elapsed": perf_counter() - begin - paused}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least MIN_TAIL_BEYOND
    units strictly above it, and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def end_to_end(m: dict, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced units (all units when a short
    traced run has none). Latencies are those of the units that passed
    their check, or of all units when none did."""
    traced = not any(not t for *_, t in m["units"])
    units = [u for u in m["units"] if u[3] == traced]
    ok_lat = [lat for _, lat, ok, _ in units if ok]
    attempted = len(units)
    failed = attempted - len(ok_lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (len(ok_lat) / m["wall"][traced], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    lat = ok_lat or [lat for _, lat, _, _ in units]
    t, pct = tail(lat)
    metrics["unit_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
    metrics["unit_tail_ms"] = (t * 1e3, "ms")
    detail = {"units_attempted": attempted, "units_failed": failed,
              "latency_samples": len(lat), "tail_percentile": pct}
    cells: dict[str, list[float]] = {}
    for cell, lat, ok, _ in units:
        if ok:
            cells.setdefault(cell, []).append(lat)
    detail["cells"] = {c: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
                       for c, v in sorted(cells.items())}
    return metrics, detail


def per_layer(m: dict, tracer) -> dict:
    """Per-layer metrics of the traced units, each normalised per unit."""
    agg = tracer.aggregate()
    traced = [(lat, ok) for _, lat, ok, t in m["units"] if t]
    n = len(traced)
    untraced = [lat for _, lat, _, t in m["units"] if not t]

    def row(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out = {}
    from tracing import COUNTER_SPAN, TRACED, UNIT_SPAN

    for name in [t[0] for t in TRACED] + [UNIT_SPAN, COUNTER_SPAN]:
        r = row(name)
        out[f"{name}.calls"] = (r["calls"] / n, "calls/unit")
        out[f"{name}.s"] = (r["s"] / n, "s/unit")
        out[f"{name}.self_s"] = (r["self_s"] / n, "s/unit")
    kernel_s = (row("losses.population_contrastive")["s"]
                + row("losses.population_distillation")["s"])
    outcomes = tracer.counters["losses.outcomes"]
    out["losses.outcomes"] = (outcomes / n, "outcomes/unit")
    out["losses.outcomes_per_s"] = (outcomes / kernel_s if kernel_s else 0.0, "1/s")
    step_s = row("trainer.grad_total")["s"] + row("trainer.sgd_step")["s"]
    steps = row("trainer.sgd_step")["calls"]
    out["trainer.steps_per_s"] = (steps / step_s if step_s else 0.0, "1/s")
    out["trainer.checkpoint_bytes"] = (tracer.counters["trainer.checkpoint_bytes"] / n, "B/unit")
    # Share of the traced unit latency spent in the traced cclab functions:
    # their self times, without the harness root span and the tracer's counting.
    layer_self = sum(r["self_s"] for name, r in agg.items()
                     if name not in (UNIT_SPAN, COUNTER_SPAN))
    traced_lat = sum(lat for lat, _ in traced)
    out["trace.layer_share"] = (layer_self / traced_lat, "ratio")
    ups_traced = n / m["wall"][True]
    ups_untraced = len(untraced) / m["wall"][False] if untraced else ups_traced
    out["trace.units_per_s_traced"] = (ups_traced, "1/s")
    out["trace.units_per_s_untraced"] = (ups_untraced, "1/s")
    out["trace.overhead_pct"] = (100.0 * (ups_untraced / ups_traced - 1.0), "%")
    return out


def select(available: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, with the units it lists."""
    result = {}
    for spec in wanted:
        value, unit = available[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != {spec['unit']}")
        result[spec["name"]] = {"value": value, "unit": unit}
    return result


def bootstrap() -> None:
    """Pin the BLAS thread count and make ``src/cclab`` of this checkout
    importable; exit with code 2 when it is missing or shadowed."""
    for var in BLAS_ENV:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "cclab" / "__init__.py").is_file():
        print(f"error: no cclab sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import cclab

    if Path(cclab.__file__).resolve().parent != (src / "cclab").resolve():
        print(f"error: imported cclab from {cclab.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    import_s = perf_counter() - T_START
    env = environment(np, args.workload, args.seed)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    reps = []

    def set_up():
        """One timed set-up of a fresh workload in its own directory."""
        root = workdir / f"setup{len(reps)}"
        root.mkdir()
        t0 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, reference)
        wl.setup(root)
        reps.append(perf_counter() - t0)
        return wl, root

    def set_up_again():
        shutil.rmtree(set_up()[1])

    try:
        wl, _ = set_up()
        first_unit_s = perf_counter() - T_START
        tracer = tracing.Tracer() if args.trace else None
        # The other set-ups are spread over the run, between cycles and
        # untimed, so that their median does not hang on one moment of a
        # machine whose speed drifts over seconds.
        offsets = [args.seconds * r / SETUP_REPS for r in range(1, SETUP_REPS)]
        m = measure(wl, args.seconds, tracer, offsets, set_up_again)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = import_s + statistics.median(reps)
    e2e, detail = end_to_end(m, setup_s)
    detail.update(
        env=env,
        setup={"import_s": import_s, "reps_s": reps, "first_unit_after_s": first_unit_s},
        cycles=m["cycles"],
        elapsed_s=m["elapsed"],
        errors=m["errors"],
        workload_state=wl.summary(),
    )
    if args.trace:
        available = per_layer(m, tracer)
        wanted = spec["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans_path), {"env": env})
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["tracing_overhead_pct"] = available["trace.overhead_pct"][0]
    else:
        available = e2e
        wanted = spec["end_to_end"]
    metrics = select(available, wanted)

    shown = dict(e2e, **(available if args.trace else {}))
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    attempted, failed = len(m["units"]), sum(not ok for _, _, ok, _ in m["units"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
