"""One benchmark operation in a fresh interpreter: ``python3 perfbench/child.py SPEC.json``.

The spec names the operation:

* ``cli``: ``ringfisher.cli.main(argv)``; the exit code is the command's;
* ``path_integration``: ``run_path_integration`` on the optimal population of
  a kernel file, report written as JSON;
* ``torus_sample``: repeated ``NoiseModel(TorusCorrelation).sample`` calls,
  draws written as ``.npy``;
* ``setup``: import the package and load and decompose each kernel file.

With ``"spans": PATH`` in the spec, the public functions are wrapped first
(see ``spans.py``) and the recorded spans are written to PATH at the end.
Untraced CLI operations do not come here: ``run.py`` runs ``python3 -m
ringfisher`` for them.
"""

from __future__ import annotations

import json
import sys


def _decompose_file(rf, path):
    return rf.decompose(rf.io.load_kernel(path))


def run(spec: dict) -> int:
    import numpy as np

    import ringfisher as rf
    import ringfisher.io  # noqa: F401  (binds rf.io)

    kind = spec["kind"]
    if kind == "cli":
        from ringfisher import cli

        return int(cli.main(spec["argv"]))
    if kind == "setup":
        for path in spec["kernels"]:
            _decompose_file(rf, path)
        return 0
    if kind == "path_integration":
        decomp = _decompose_file(rf, spec["kernel"])
        pop = rf.optimal_tuning_1d(decomp, spec["power"])
        report = rf.run_path_integration(
            pop,
            steps=spec["steps"],
            trials=spec["trials"],
            seed=spec["seed"],
            mode=spec["mode"],
            estimator=spec["estimator"],
        )
        with open(spec["out"], "w") as handle:
            json.dump(report.to_dict(), handle)
        return 0
    if kind == "torus_sample":
        noise = rf.NoiseModel(rf.TorusCorrelation(_decompose_file(rf, spec["kernel"])))
        rng = np.random.Generator(np.random.Philox(spec["seed"]))
        draws = [noise.sample(rng, spec["size"]) for _ in range(spec["calls"])]
        np.save(spec["out"], np.concatenate(draws))
        return 0
    raise ValueError(f"unknown operation kind {kind!r}")


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    spans_path = spec.get("spans")
    if spans_path is None:
        return run(spec)
    import spans

    recorder = spans.Recorder(spec["op_id"])
    command = spec["argv"][spec["command_index"]] if spec["kind"] == "cli" else None
    spans.install(recorder, cli_command=command)
    try:
        return run(spec)
    finally:
        recorder.dump(spans_path, {"kind": spec["kind"]})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
