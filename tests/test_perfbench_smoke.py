"""One short traced benchmark run, so the harness keeps working.

`perfbench/tracer.py` patches names of the package (`engine.__all__`,
`engine.custom_op`, `training.evaluate`, `nn.Module.__call__`, ...); a
change that renames or deletes one of them breaks the benchmark without
failing any other test. The run also checks a probe scene's logits
against `perfbench/reference.json` to 1e-12 and the traced FLOPs against
`count_flops` exactly. The op counts of one b1 64x64 forward are capped,
so re-splitting the kernel selector's fused mix into small ops fails here.
The tracer counts tensors by wrapping `Tensor.__init__`; every op output
must still be built through it, so there are at least as many tensors as
ops.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_infer_64_run_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-64",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    docs = [json.loads(line) for line in proc.stdout.splitlines() if line]
    checks = next(d["checks"] for d in docs if "checks" in d)
    result = next(d for d in docs if "failed" in d)
    assert result["failed"] == 0
    assert checks["probe"] is True
    assert checks["flops_traced_equal_static"] is True
    assert result["metrics"]["engine.ops"]["value"] <= 273
    assert result["metrics"]["blocks.selector.ops"]["value"] <= 66
    assert (result["metrics"]["engine.tensors"]["value"]
            >= result["metrics"]["engine.ops"]["value"])
