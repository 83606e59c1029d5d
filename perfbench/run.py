"""dsmsharp benchmark: seeded scenes through the real CLI.

    python3 perfbench/run.py --workload city --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/dsmsharp`` must be there).
The run writes the workload's inputs from the seed, then runs samples one
at a time, each in a fresh interpreter with BLAS/OpenMP pinned to one
thread, and starts no new one once ``--seconds`` are used up. Every sample
runs the workload's CLI invocations into its own output directory; the
outputs are checked and digested. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (counted in CLI invocations) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Everything else (environment,
input hashes, output digest, per-sample values, spans) goes to
``.bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = ROOT / ".bench"

SAMPLE_TIMEOUT_S = 60
RUN_LIMIT_S = 120  # no sample starts later; a run must end within 180 s
SETUP_PROBES = 2  # import-only samples besides the timed ones

ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

_MASKS = ["building_mask.pgm", "boundary_contours.pgm"]
_SEGMENTS = ["segments_raw.csv", "segments_filtered.csv"]


def _report(methods):
    return ["rmse_report.csv"] + [f"sweep_{m}.csv" for m in ["original", *methods]]


def _run_all(method, methods, extra=()):
    argv = ["run-all", "--method", method, *extra, "--dsm", "{in}/dsm.asc",
            "--ortho", "{in}/ortho.pgm", "--truth", "{in}/truth.asc", "--out", "{out}"]
    files = _MASKS + _SEGMENTS + [f"adjusted_{m}.asc" for m in methods] + _report(methods)
    return (argv, files)


_CLUTTER_SET = ("--set", "tophat.scale_max=60")

# workload -> timed invocations, each (argv, files it must write), and the
# methods its rmse_report.csv must score. "quality" invocations run once,
# untimed, after the samples, reading the first sample's outputs: clutter
# times plane fit alone but still reports the graph-cut RMSE.
WORKLOADS = {
    "city": {
        "timed": [_run_all("both", ["graphcut", "planefit"])],
        "methods": ["graphcut", "planefit"],
    },
    "clutter": {
        "timed": [_run_all("planefit", ["planefit"], _CLUTTER_SET)],
        "methods": ["planefit"],
        "quality": [
            (["sharpen", "--method", "graphcut", *_CLUTTER_SET, "--dsm", "{in}/dsm.asc",
              "--segments", "{first}/segments_filtered.csv", "--out", "{out}"],
             ["adjusted_graphcut.asc"]),
            (["evaluate", *_CLUTTER_SET, "--dsm", "{in}/dsm.asc", "--truth", "{in}/truth.asc",
              "--variant", "graphcut={out}/adjusted_graphcut.asc", "--out", "{out}"],
             _report(["graphcut"])),
        ],
        "quality_methods": ["graphcut"],
    },
    "chain": {
        "timed": [
            (["extract-mask", "--dsm", "{in}/dsm.asc", "--out", "{out}"], _MASKS),
            (["detect-lines", "--dsm", "{in}/dsm.asc", "--ortho", "{in}/ortho.pgm",
              "--out", "{out}"], _SEGMENTS),
            (["sharpen", "--method", "planefit", "--dsm", "{in}/dsm.asc", "--out", "{out}"],
             ["adjusted_planefit.asc"]),
            (["sharpen", "--method", "graphcut", "--dsm", "{in}/dsm.asc", "--out", "{out}"],
             ["adjusted_graphcut.asc"]),
            (["evaluate", "--dsm", "{in}/dsm.asc", "--truth", "{in}/truth.asc",
              "--variant", "planefit={out}/adjusted_planefit.asc",
              "--variant", "graphcut={out}/adjusted_graphcut.asc", "--out", "{out}"],
             _report(["planefit", "graphcut"])),
        ],
        "methods": ["planefit", "graphcut"],
    },
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _fill(argv, **dirs):
    return [a.format(**{k: str(v) for k, v in dirs.items()}) for a in argv]


def _digest(directory: Path, names=None) -> str:
    h = hashlib.sha256()
    paths = sorted(directory.iterdir()) if names is None else [directory / n for n in sorted(names)]
    for path in paths:
        if path.is_file():
            h.update(path.name.encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _run_sample(work: Path, sample_id: int, invocations: list, trace: bool) -> dict:
    """Run one sample process to completion; return its result record."""
    spec_path = work / f"spec{sample_id}.json"
    result_path = work / f"result{sample_id}.json"
    spec_path.write_text(json.dumps({"invocations": invocations, "trace": trace,
                                     "sample": sample_id}))
    with open(work / f"log{sample_id}.txt", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=work,
            env=dict(os.environ, **ENV_PINS, PYTHONPATH=str(SRC)),
            timeout=SAMPLE_TIMEOUT_S,
        )
    if proc.returncode != 0 or not result_path.is_file():
        tail = (work / f"log{sample_id}.txt").read_text()[-2000:]
        raise BenchError(f"sample process failed (exit {proc.returncode}):\n{tail}")
    result = json.loads(result_path.read_text())
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"dsmsharp was imported from {result['module']}, not from {SRC}")
    return result


def _read_report(path: Path) -> dict:
    with open(path, newline="") as fh:
        return {row["method"]: row for row in csv.DictReader(fh)}


def _check_invocations(result, specs, out: Path, first_digests) -> list[str | None]:
    """Per invocation: digest of its files, or None when it failed."""
    digests = []
    for (argv, files), code in zip(specs, result["exit_codes"] + [None] * len(specs)):
        ok = code == 0 and all((out / f).is_file() and (out / f).stat().st_size > 0 for f in files)
        digests.append(_digest(out, files) if ok else None)
    if first_digests is not None:
        digests = [d if d == f else None for d, f in zip(digests, first_digests)]
    return digests


def _rmse_ok(report: dict, methods) -> bool:
    if set(report) != {"original", *methods}:
        return False
    try:
        values = [float(row[c]) for row in report.values() for c in ("whole", "buf5")]
    except (KeyError, ValueError):
        return False
    return all(math.isfinite(v) and v > 0 for v in values)


def _tail(values):
    """Highest percentile (whole percent) with at least ten samples above it."""
    n = len(values)
    for pct in range(99, 49, -1):
        if n - math.ceil(n * pct / 100) >= 10:
            return pct, sorted(values)[math.ceil(n * pct / 100) - 1]
    return None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "dsmsharp" / "cli.py").is_file():
        raise BenchError(f"no dsmsharp sources at {SRC}; run from a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import scenes
    from tracing import layer_values

    wl = WORKLOADS[workload]
    work = BENCH / f"work-{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "in"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "env_pins": ENV_PINS,
    }
    try:
        record["inputs_sha256"] = scenes.write_inputs(workload, seed, inputs)

        # import-only samples; the first may compile bytecode and is dropped
        setup = [_run_sample(work, -1 - i, [], False)["setup_s"] for i in range(SETUP_PROBES + 1)]
        setup = setup[1:]

        samples = []
        first_out = None
        first_digests = None
        attempted = failed = 0
        t_start = time.perf_counter()
        while True:
            sid = len(samples)
            out = work / f"out{sid}"
            traced = trace and sid % 2 == 1
            invocations = [_fill(argv, **{"in": inputs, "out": out}) for argv, _ in wl["timed"]]
            result = _run_sample(work, sid, invocations, traced)
            digests = _check_invocations(result, wl["timed"], out, first_digests)
            report_ok = digests[-1] is not None and _rmse_ok(
                _read_report(out / "rmse_report.csv"), wl["methods"])
            attempted += len(digests)
            failed += sum(d is None for d in digests) + (digests[-1] is not None and not report_ok)
            result.update(traced=traced, out_digest=_digest(out))
            samples.append(result)
            if first_out is None:
                first_out, first_digests = out, digests
                record["rmse_report"] = _read_report(out / "rmse_report.csv") if report_ok else {}
            else:
                shutil.rmtree(out)
            # a sample starts while time is left, so the last one overruns; two
            # at least, as outputs are compared across samples and a traced
            # run needs an untraced sample beside its traced one
            elapsed = time.perf_counter() - t_start
            if len(samples) >= 2 and elapsed >= min(seconds, RUN_LIMIT_S):
                break

        report = dict(record["rmse_report"])
        if "quality" in wl:
            qout = work / "quality"
            invocations = [_fill(argv, **{"in": inputs, "out": qout, "first": first_out})
                           for argv, _ in wl["quality"]]
            qres = _run_sample(work, len(samples), invocations, False)
            qdig = _check_invocations(qres, wl["quality"], qout, None)
            qrep = _read_report(qout / "rmse_report.csv") if qdig[-1] is not None else {}
            attempted += len(qdig)
            failed += sum(d is None for d in qdig)
            # the untimed evaluation must score the original DSM the same way
            if (not _rmse_ok(qrep, wl["quality_methods"])
                    or qrep["original"] != report.get("original")):
                failed += 1
            else:
                report.update({m: qrep[m] for m in wl["quality_methods"]})
            record.update(rmse_report=report, quality_digest=_digest(qout))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_digests = {s["out_digest"] for s in samples}
    record.update(samples=samples, setup_samples=setup, out_digest=sorted(out_digests))
    correct = (failed == 0 and len(out_digests) == 1
               and _rmse_ok(report, ["planefit", "graphcut"]))

    plain = [s for s in samples if not s["traced"]]
    wall = [s["wall_s"] for s in plain]
    record["wall_tail"] = _tail(wall)
    if not trace:
        values = {
            "setup_s": statistics.median(setup + [s["setup_s"] for s in samples]),
            "wall_s": statistics.median(wall),
            "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in plain]),
        }
        for method in ("planefit", "graphcut"):
            row = report.get(method)  # missing only when correct is false
            values[f"buf5_rmse.{method}"] = float(row["buf5"]) if row else None
            values[f"whole_rmse.{method}"] = float(row["whole"]) if row else None
    else:
        traced_wall = [s["wall_s"] for s in samples if s["traced"]]
        overhead = statistics.median(traced_wall) - statistics.median(wall)
        per_sample = [
            dict(layer_values(s["spans"], s["counts"]), **{"trace.overhead_s": overhead})
            for s in samples if s["traced"]
        ]
        values = {k: statistics.median([v[k] for v in per_sample]) for k in per_sample[0]}
    metrics = {}
    for entry in listed:
        if entry["name"] not in values:
            raise BenchError(f"BENCHMARK.json lists {entry['name']!r}, which is not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    record["metrics"] = metrics
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record = out.pop("record")
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    tail = record["wall_tail"]
    print(
        f"# {args.workload} seed={args.seed}: {len(record['samples'])} samples, "
        f"wall_s median over {sum(not s['traced'] for s in record['samples'])} untraced"
        + (f", p{tail[0]}={tail[1]:.4f}" if tail else ", too few for a tail percentile")
        + f"; output digest {record['out_digest'][0][:16]}; details in {path.relative_to(ROOT)}"
    )
    print(f"# nproc={record['nproc']} loadavg at start={record['loadavg_start']} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}")
    for name, m in out["metrics"].items():
        print(f"#   {name:34s} {m['value']} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
