"""Write the pinned outputs that benchmark runs are checked against.

Run from the repository root:

    python3 perfbench/pin_goldens.py --workload analyze-binomial --seeds 0-10

For each seed it runs the workload's op (the first SIMULATE_PINNED_OPS
ops for simulate-rv), checks the outputs for internal consistency and
stores them in ``perfbench/goldens.json``: the exact rejected set with
t1, t2 and the FDP estimate for analyze workloads, the per-method
rejection counts for simulate-rv. Regenerate a pin only when a change to
fdr2d is meant to change its outputs, and say why in CHANGES.md.
"""

import argparse
import json
import sys
import tempfile

import run


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    run.bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-10 or 4")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    path = run.HERE / "goldens.json"
    goldens = run.load_goldens() if path.exists() else {}
    pins = goldens.setdefault(workload.name, {})
    n_ops = workloads.SIMULATE_PINNED_OPS if workload.kind == "simulate" else 1
    run.WORK_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as workdir:
            session = workload.setup(seed, workdir)
            values = []
            for i in range(n_ops):
                out = session.run(i)
                problems = session.check(i, out)
                if problems:
                    sys.exit(f"error: {workload.name} seed {seed} op {i}: {problems}")
                values.append(session.pin(i, out))
        pins[str(seed)] = values if workload.kind == "simulate" else values[0]
        print(f"{workload.name} seed {seed}: {values[0]}", file=sys.stderr)
    goldens[workload.name] = dict(sorted(pins.items(), key=lambda kv: int(kv[0])))
    # one line per seed keeps diffs of a regenerated pin readable
    blocks = []
    for name, by_seed in sorted(goldens.items()):
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(pin)}" for seed, pin in by_seed.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
