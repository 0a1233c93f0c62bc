"""Write golden/ from the current sources at the reference inputs.

    python3 perfbench/record_golden.py

Runs one untraced pass of every workload with the reference waist and
pulse energy (A = U = 1) and oracle target eta = 0.05, and copies the
outputs to golden/<workload>/. The committed files come from the seed
commit; rerun this only when a change to the program's outputs is
intended, and say so in that change.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import (GOLDEN_ORACLE_ETA, HERE, REFERENCE_ENERGY_J, REFERENCE_WAIST_M,
                 ROOT, SRC, WORKLOADS, child_env, commands)


def main():
    work = ROOT / ".perfbench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "scenario.cfg"
    config.write_text(f"waist_m = {REFERENCE_WAIST_M!r}\n"
                      f"pulse_energy_J = {REFERENCE_ENERGY_J!r}\n")
    for workload in WORKLOADS:
        spec = {"src": str(SRC), "config": str(config), "workdir": str(work / workload),
                "commands": commands(workload, {"oracle_eta": GOLDEN_ORACLE_ETA}),
                "seconds": 0, "trace": False, "result": str(work / f"{workload}.json")}
        spec_path = work / f"{workload}.spec.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(spec_path)],
                       env=child_env(), check=True)
        (run,) = json.loads(Path(spec["result"]).read_text())["passes"]
        target = HERE / "golden" / workload
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(run["outdir"], target)
        for op in run["ops"]:
            if op["code"] != 0:
                raise SystemExit(f"{workload} {op['command']} failed: {op['error']}")
            if op["command"] == ["resolve"]:
                (target / "resolve.stdout").write_text(op["stdout"])
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
