"""pulsescope benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed draws the inputs (aperture
scale A, pulse-energy scale U, oracle target eta); the program sees only
the generated config file and CLI arguments. Each workload runs in a
fresh single-process Python with BLAS and OpenMP pinned to one thread,
calling pulsescope.cli.main once per command. Every command's outputs
are checked against golden/ (see checks.py).

--trace 0 prints the end-to-end metrics (setup_s, run_s, cpu_s,
peak_rss_mb); --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of tracer.py. The last stdout line is the result;
the lines before it give the inputs, the environment and error_rate.
See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "pulsescope"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 9

# reference values of the two drawn config keys, and the oracle target
# the golden files were recorded at
REFERENCE_WAIST_M = 0.001
REFERENCE_ENERGY_J = 0.7e-9
GOLDEN_ORACLE_ETA = 0.05


WORKLOADS = ("reference_scenario", "oracle_validation", "focal_figures")


def commands(workload, inputs):
    e = repr(inputs["oracle_eta"])
    return {
        "reference_scenario": [["scenario"]],
        "oracle_validation": [["oracle", "10", e, "30", e]],
        "focal_figures": [["figure", "1b"], ["figure", "1c-inset"],
                          ["focus"], ["resolve"]],
    }[workload]


# spans each workload must fire (tracer self-check)
ON_EVERY_WORKLOAD = ["spectra.make_spectrum", "quadrature.refine_until_converged",
                 "config.load_config", "cli.main"]
EXPECTED_SPANS = {
    "reference_scenario": [
        "quadrature.oscillatory_cos_sin", "quadrature.certified_tail_cutoff",
        "focal.focal_intensity_rephased", "focal.spot_size", "excitation.eta",
        "excitation.f_integral", "excitation.f_integral.chi",
        "excitation.excitation_probability", "scenario.run_scenario"],
    "oracle_validation": [
        "quadrature.filon_transform", "focal.focal_field_time", "excitation.eta",
        "oracle.propagate_driven_tls", "oracle.oracle_excitation_probability",
        "scenario.oracle_compare"],
    "focal_figures": [
        "bessel.j1_over_x", "focal.focal_intensity_rephased",
        "focal.focal_field_time", "scenario.emit_figure_data"],
}


def draw_inputs(seed):
    """A and U with A sqrt(U) in [0.5, 1], so eta stays under the 0.5
    weak-field flag; the oracle target eta in the weak-field range."""
    rng = random.Random(seed)
    a = rng.uniform(0.5, 1.0)
    a_sqrt_u = rng.uniform(0.5, 1.0)
    waist = REFERENCE_WAIST_M * a
    energy = REFERENCE_ENERGY_J * (a_sqrt_u / a) ** 2
    return {
        "waist_m": waist,
        "pulse_energy_J": energy,
        "aperture_scale": waist / REFERENCE_WAIST_M,
        "energy_scale": energy / REFERENCE_ENERGY_J,
        "oracle_eta": rng.uniform(0.03, 0.07),
        "golden_oracle_eta": GOLDEN_ORACLE_ETA,
    }


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def commit_id():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def source_lines():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    lines = {f.stem: len(f.read_text().splitlines()) for f in files}
    lines["total"] = sum(lines.values())
    return lines


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def child(self, args):
        """Run one child to completion; SystemExit if it fails or overruns."""
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("time limit reached before starting a child")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                                  env=child_env(), capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"child {args} exceeded the time limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"child {args} exited with {proc.returncode}")
        return proc.stdout


def tracer_self_check(workload, passes, missing):
    """Problems with the traced passes; empty if the tracer is sound."""
    problems = [f"layer {name} no longer exists" for name in missing]
    plain = passes[0]
    for p in passes:
        if not p["traced"]:
            continue
        if [op["stdout"] for op in p["ops"]] != [op["stdout"] for op in plain["ops"]]:
            problems.append("traced stdout differs from untraced")
        if _files(p["outdir"]) != _files(plain["outdir"]):
            problems.append("traced output files differ from untraced")
        for name in ON_EVERY_WORKLOAD + EXPECTED_SPANS[workload]:
            if name in missing or name.rsplit(".", 1)[0] in missing:
                continue
            if p["layers"].get(f"{name}.calls", 0) == 0:
                problems.append(f"span {name} did not fire")
    return sorted(set(problems))


def _files(outdir):
    outdir = Path(outdir)
    if not outdir.is_dir():
        return {}
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}


def per_layer_metrics(spec, passes, missing):
    """Counts must repeat exactly across traced passes; times are medians."""
    traced = [p for p in passes if p["traced"]]
    lines = source_lines()
    metrics, problems = {}, []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        layer = name.rsplit(".", 1)[0]
        if layer in missing:
            continue
        if name == "trace_overhead":
            untraced = [p["wall_s"] for p in passes if not p["traced"]]
            value = (statistics.median(p["wall_s"] for p in traced)
                     / statistics.median(untraced) - 1.0)
        elif name == "scenario.output_bytes":
            value = sum(len(b) for b in _files(traced[0]["outdir"]).values())
        elif name.startswith("src_lines."):
            value = lines.get(name.split(".", 1)[1], 0)
        else:
            values = [p["layers"].get(name, 0) for p in traced]
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    problems.append(f"{name} does not repeat: {values}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"no pulsescope sources under {SRC}; run from a checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = Deadline(TIME_LIMIT_S)

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = draw_inputs(args.seed)
    config = work / "scenario.cfg"
    config.write_text(f"waist_m = {inputs['waist_m']!r}\n"
                      f"pulse_energy_J = {inputs['pulse_energy_J']!r}\n")
    spec = {"src": str(SRC), "config": str(config), "workdir": str(work),
            "commands": commands(args.workload, inputs), "seconds": args.seconds,
            "trace": bool(args.trace), "result": str(work / "result.json")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))

    setups = []
    if not args.trace:
        # the first probe compiles bytecode and warms the file cache
        for i in range(SETUP_PROBES + 1):
            out = deadline.child(["setup", str(spec_path)])
            if i:
                setups.append(json.loads(out.splitlines()[-1])["setup_s"])
    deadline.child(["run", str(spec_path)])
    result = json.loads((work / "result.json").read_text())
    passes = result["passes"]

    failures = []
    attempted = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            errors = check_op(args.workload, op, Path(p["outdir"]), HERE / "golden", inputs)
            if errors:
                failures.append(errors[:10])

    if args.trace:
        problems = tracer_self_check(args.workload, passes, result["missing_layers"])
        metrics, repeat_problems = per_layer_metrics(bench["per_layer"], passes,
                                                     result["missing_layers"])
        problems += repeat_problems
        attempted += 1  # the tracer self-check counts as one operation
        if problems:
            failures.append(["tracer self-check: " + p for p in problems])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    for p in passes:
        shutil.rmtree(p["outdir"], ignore_errors=True)
    environment = dict(result["environment"], commit=commit_id())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": inputs, "environment": environment, "setup_s": setups,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced")} for p in passes],
              "failures": failures, "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for errors in failures:
        for line in errors:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"inputs: A={inputs['aperture_scale']!r} U={inputs['energy_scale']!r} "
          f"eta={inputs['oracle_eta']!r}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    for name, m in metrics.items():
        if not name.startswith("src_lines."):
            print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"error_rate = {len(failures) / attempted!r} ({len(failures)}/{attempted} operations)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
